"""Plain-text table and series rendering for the benchmark harness.

Every bench prints the same rows/series the paper's table or figure
shows; these helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["render_table", "render_series"]


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in str_rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_series(
    name: str,
    points: Sequence[Tuple[float, float]],
    x_label: str = "x",
    y_label: str = "y",
    fmt: str = "{:.4g}",
) -> str:
    """One figure series as aligned x/y rows."""
    lines = [f"{name}  ({x_label} -> {y_label})"]
    for x, y in points:
        lines.append(f"  {fmt.format(x):>12}  {fmt.format(y):>12}")
    return "\n".join(lines)
