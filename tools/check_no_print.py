"""Reject bare ``print(`` calls in library code.

Library modules under ``src/repro/`` must report through the obs layer
(metrics, the tracer's event record, report ``summary()``) or raise -- a stray
debug print bypasses all of it and pollutes stdout for every embedder.
Entry points that legitimately talk to a terminal are allowlisted:
``cli.py``, the ``*/smoke.py`` CI gates, and -- when pointed at the
``benchmarks/`` tree -- the ``bench_*.py`` drivers and their ``_util``
publisher (benchmarks print their results by design).

Usage (CI runs this):

    python tools/check_no_print.py [root]

Exit status 0 when clean, 1 with one ``path:line`` diagnostic per
offending call otherwise.
"""

from __future__ import annotations

import os
import re
import sys

# Word boundary on the left so ``blueprint(`` / ``pprint(`` never match;
# ``print (`` with space is still caught.
PRINT_CALL = re.compile(r"(?<![\w.])print\s*\(")

ALLOWED_BASENAMES = {"cli.py", "smoke.py", "_util.py"}


def allowed(filename: str) -> bool:
    return filename in ALLOWED_BASENAMES or filename.startswith("bench_")


def strip_noncode(line: str) -> str:
    """Drop comments and string literals so prints inside either do not
    trip the check.  A line-based strip is enough for this codebase:
    docstring prose mentioning print() stays invisible because each
    physical line inside a triple-quoted block still starts or ends in
    a quote context we cut at the first quote character."""
    line = line.split("#", 1)[0]
    # Cut at the first quote: anything after is (part of) a literal.
    match = re.search(r"['\"]", line)
    return line[: match.start()] if match else line


def scan_file(path: str) -> list:
    offenders = []
    in_string = False
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if line.count('"""') % 2 == 1 or line.count("'''") % 2 == 1:
                in_string = not in_string
                continue
            if in_string:
                continue
            if PRINT_CALL.search(strip_noncode(line)):
                offenders.append(f"{path}:{lineno}: bare print() in library code")
    return offenders


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
