"""Reject bare ``print(`` calls in library code.

Library modules under ``src/repro/`` must report through the obs layer
(histograms, the tracer's event record, report ``summary()``) or raise
-- a stray debug print bypasses all of it and pollutes stdout for every
embedder.  Entry points that legitimately talk to a terminal are
allowlisted: ``cli.py`` and -- when pointed at the ``benchmarks/`` tree
-- the ``bench_*.py`` drivers and their ``_util`` publisher (benchmarks
print their results by design).

A call is any ``print(...)`` the parser sees, wherever it sits on its
line and inside f-string expressions too; strings, comments and
docstrings that only mention ``print()`` are not calls.

Usage (CI runs this):

    python tools/check_no_print.py [root]

Exit status 0 when clean, 1 with one ``path:line`` diagnostic per
offending call otherwise.
"""

from __future__ import annotations

import ast
import os
import sys

ALLOWED_BASENAMES = {"cli.py", "_util.py"}


def allowed(filename: str) -> bool:
    return filename in ALLOWED_BASENAMES or filename.startswith("bench_")


def scan_file(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    )
    return [f"{path}:{line}: bare print() in library code" for line in lines]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else os.path.join("src", "repro")
    offenders = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            if allowed(filename):
                continue
            offenders.extend(scan_file(os.path.join(dirpath, filename)))
    for line in offenders:
        print(line)
    if offenders:
        print(f"check_no_print: {len(offenders)} bare print call(s); "
              "route output through repro.obs or a report summary() instead")
        return 1
    print(f"check_no_print: clean ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
