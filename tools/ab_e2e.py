"""Alternating parent / change pairs of end-to-end workloads.

    python tools/ab_e2e.py --parent REV --workload W [W ...|all] [--pairs 10] [--seed N]

The ROADMAP's ten-pair rule as one command.  ``REV`` is unpacked with
``git archive`` into a temporary directory (no worktree is registered,
nothing is left behind) and the working tree's tracked and untracked,
un-ignored files are copied into a second one -- both sides start
without ``__pycache__``, as the benchmark driver's fresh checkouts do
(compiling from source costs set-up time and peak RSS that a working
tree with cached bytecode would not pay).  Each pair then runs

    benchmarks/e2e/bench_e2e.py --child --workload W --seed N --scale 0.6

once on each side, one process at a time; which side goes first flips
every pair, because the host drifts 15-40 % over minutes and the drift
must not always land on the same side.  Several workloads (or ``all``,
the list in ``BENCHMARK.json``) share the two unpacked trees and are
taken round-robin inside each pair, so a slow minute is spread over
every row instead of sinking one workload's ten pairs.

Prints every run, then per workload and side the median and quartiles of
``setup_s``, ``wall_s`` and ``peak_rss_mb`` and how many pairs the
change won, then one Markdown table row per workload.  Exits 1 when, on
any workload, ``digest`` (which hashes ``sim``), the operation counts or
a counter the benchmark marks exact differs between the sides (a
host-time change may not move a simulated event), 2 on a run that
produced no result.  CI runs it self against self (``--parent HEAD
--pairs 1``): that must exit 0, which keeps the tool and the
two-fresh-interpreter determinism it checks from rotting.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("benchmarks", "e2e", "bench_e2e.py")

# What may not differ between the sides is what the benchmark itself
# requires to repeat exactly: digest (``sim`` is hashed into it), the
# operation counts and every count it marks exact.
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks", "e2e"))
from e2e_report import exact_view  # noqa: E402
SCALE = "0.6"
METRICS = ("setup_s", "wall_s", "peak_rss_mb")
RUN_TIMEOUT_S = 300.0


def unpack(rev: str, into: str) -> None:
    """The committed files of ``rev`` under ``into``."""
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", rev], cwd=REPO_ROOT, stdout=subprocess.PIPE
    )
    try:
        subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()  # type: ignore[union-attr]
        if archive.wait() != 0:
            raise SystemExit(f"ab_e2e: git archive {rev!r} failed")


def snapshot_working_tree(into: str) -> None:
    """What ``git add -A && git commit`` would record, under ``into``."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, check=True,
    ).stdout
    pack = subprocess.Popen(
        ["tar", "-c", "--null", "--ignore-failed-read", "-T", "-"],
        cwd=REPO_ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,  # a tracked file deleted in the tree
    )
    unpack_proc = subprocess.Popen(["tar", "-x", "-C", into], stdin=pack.stdout)
    pack.stdout.close()  # type: ignore[union-attr]
    pack.stdin.write(listing)  # type: ignore[union-attr]
    pack.stdin.close()  # type: ignore[union-attr]
    if unpack_proc.wait() != 0 or pack.wait() not in (0, 1):
        raise SystemExit("ab_e2e: could not copy the working tree")


def run_once(root: str, workload: str, seed: int) -> Optional[Dict[str, Any]]:
    """One untraced repeat of the benchmark that sits under ``root``."""
    done = subprocess.run(
        [sys.executable, "-B", BENCH, "--child", "--workload", workload,
         "--seed", str(seed), "--scale", SCALE],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:9.3f} (one run)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:9.3f}  [q1 {q1:.3f}, q3 {q3:.3f}]"


def summarise(workload: str, runs: Dict[str, List[Dict[str, Any]]]) -> str:
    """Print one workload's block; returns its Markdown table row."""
    pairs = len(runs["parent"])
    cells = [f"`{workload}`"]
    print(f"\n== {workload}")
    for metric in METRICS:
        samples = {side: [r[metric] for r in runs[side]] for side in runs}
        won = sum(c < p for p, c in zip(samples["parent"], samples["change"]))
        lost = sum(c > p for p, c in zip(samples["parent"], samples["change"]))
        medians = {side: statistics.median(samples[side]) for side in runs}
        delta = (medians["change"] / medians["parent"] - 1) * 100
        print(f"{metric:<12} parent {quartiles(samples['parent'])}")
        print(f"{'':<12} change {quartiles(samples['change'])}  "
              f"median {delta:+.1f} % of parent, "
              f"change lower in {won}/{pairs} pairs, higher in {lost}")
        cells.append(f"{medians['parent']:.3f} → {medians['change']:.3f} "
                     f"({delta:+.1f} %, {won}/{pairs})")
    return "| " + " | ".join(cells) + " |"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--workload", required=True, nargs="+", metavar="W",
                        help="workload names, or 'all' for BENCHMARK.json's list")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    opts = parser.parse_args(argv)
    workloads: List[str] = opts.workload
    if workloads == ["all"]:
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
            workloads = [w["name"] for w in json.load(handle)["workloads"]]

    workdir = tempfile.mkdtemp(prefix="ab_e2e-")
    sides = ("parent", "change")
    runs: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        workload: {side: [] for side in sides} for workload in workloads
    }
    roots = {side: os.path.join(workdir, side) for side in sides}
    try:
        for root in roots.values():
            os.mkdir(root)
        unpack(opts.parent, roots["parent"])
        snapshot_working_tree(roots["change"])
        print(f"ab_e2e workloads={','.join(workloads)} seed={opts.seed} scale={SCALE} "
              f"parent={opts.parent} pairs={opts.pairs} "
              f"python={sys.version.split()[0]} cores={len(os.sched_getaffinity(0))}")
        width = max(len(workload) for workload in workloads)
        print(f"{'pair':>4} {'workload':<{width}} {'first':<7} " + " ".join(
            f"{side + '.' + m:>19}" for side in sides for m in METRICS))
        for pair in range(opts.pairs):
            order = sides if pair % 2 == 0 else sides[::-1]
            for workload in workloads:
                for side in order:
                    result = run_once(roots[side], workload, opts.seed)
                    if result is None:
                        print(f"ab_e2e: the {side} run of {workload}, pair {pair}, "
                              "produced no result")
                        return 2
                    runs[workload][side].append(result)
                print(f"{pair:>4} {workload:<{width}} {order[0]:<7} " + " ".join(
                    f"{runs[workload][side][-1][m]:>19.3f}" for side in sides for m in METRICS))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = [summarise(workload, runs[workload]) for workload in workloads]
    print("\n| workload | " + " | ".join(
        f"`{m}` parent → change (median, won)" for m in METRICS) + " |")
    print("|---" * (1 + len(METRICS)) + "|")
    print("\n".join(rows))

    status = 0
    for workload in workloads:
        views = [exact_view(r) for side in sides for r in runs[workload][side]]
        if any(view != views[0] for view in views):
            status = 1
            print(f"\nCHANGED: {workload}: digest, sim or an exact count differs between runs:")
            for side in sides:
                print(f"  {side}: {json.dumps(exact_view(runs[workload][side][0]), sort_keys=True)}")
        else:
            print(f"\n{workload}: sim.digest {views[0]['digest']} and every exact count "
                  f"identical across all {len(views)} runs")
    return status


if __name__ == "__main__":
    sys.exit(main())
