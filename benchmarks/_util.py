"""Shared helpers for the benchmark harness.

Every bench prints the rows/series of its paper table/figure and also
writes them to ``benchmarks/results/<name>.txt`` so the numbers survive
pytest's output capture and can be diffed against EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def publish(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")


def publish_json(name: str, payload: Dict[str, Any],
                 path: Optional[str] = None) -> str:
    """Persist a machine-readable result blob; returns the path written.

    Default location is ``benchmarks/results/<name>.json``; pass ``path``
    for blobs that live elsewhere (e.g. the repo-root BENCH_*.json files
    that CI checks for regressions).
    """
    if path is None:
        path = os.path.join(RESULTS_DIR, f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[{name}] wrote {path}")
    return path
