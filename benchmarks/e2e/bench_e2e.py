"""One end-to-end benchmark: seven workloads, host-time metrics, and
per-layer attribution taken from outside the program.

    PYTHONPATH=src python benchmarks/e2e/bench_e2e.py \\
        [--workload W] [--seed S] [--repeats N | --seconds T] [--trace] \\
        [--scale X] [--out NAME]
    python benchmarks/e2e/bench_e2e.py --compare A.json B.json

Without ``--workload`` every workload runs, a table of every metric (name,
value, unit) is printed and the whole result is written under
``benchmarks/e2e/results/``.  With ``--workload`` the last line of output
is the one-object JSON result ``BENCHMARK.json`` describes: the end-to-end
metrics, or with ``--trace`` the per-layer ones.

Each timed repeat is a fresh, single-threaded interpreter, one at a time
(the reference host has two cores; there is never more than one busy
process), untraced.  ``setup_s`` and ``wall_s`` are the fastest repeat of a
run, ``peak_rss_mb`` the median; the repeats must agree exactly on every
simulated statistic and every count, or the workload reports every
operation as failed.  The
traced pass is one further repeat with boundary shims installed
(``e2e_layers.py``); end-to-end metrics are never taken from it.

See README.md beside this file for what each workload is for and how the
layer metrics are expected to move the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

# The benchmark's own modules sit beside this file (the script directory is
# on sys.path); they import ``repro`` only inside functions.
import e2e_cases as cases
import e2e_layers as layers
import e2e_report as report

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
RESULTS_DIR = os.path.join(HERE, "results")
MANIFEST = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: A run keeps starting repeats until their timed regions add up to
#: ``--seconds``, within these limits (2 is the least that can disagree).
MIN_REPEATS = 2
MAX_REPEATS = 6
#: One repeat may take this long before it is killed and counted as failed.
REPEAT_TIMEOUT_S = 60.0
#: A run stops starting repeats once this much of its 180 s is spent.
RUN_BUDGET_S = 100.0
DEFAULT_SECONDS = 10.0


# ----------------------------------------------------------------------
# one repeat, inside its own interpreter


def child_main(opts: argparse.Namespace) -> int:
    """Set up, run and check one workload once; print one JSON object."""
    import resource

    t_start = time.perf_counter()  # before ``import repro``
    sys.path.insert(0, SRC_DIR)
    tracer = None
    if opts.trace:
        # Shims go in before any object is built (see e2e_layers).
        tracer = layers.LayerTracer()
        tracer.install()
    case = cases.CASES[opts.workload](opts.seed, opts.scale)

    def phase(name: str):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    with phase(opts.workload):
        with phase("setup"):
            case.setup()
        if tracer is not None:
            tracer.reset_fold()
        with phase("timed"):
            t0 = time.perf_counter()
            case.run()
            t1 = time.perf_counter()
        folded = tracer.snapshot() if tracer is not None else None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with phase("check"):
            outcome = case.check()

    result = {
        "workload": opts.workload,
        "seed": opts.seed,
        "scale": opts.scale,
        "traced": tracer is not None,
        "setup_s": t0 - t_start,
        "wall_s": t1 - t0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "work": outcome["work"],
        "work_unit": case.work_unit,
        "sim": outcome["sim"],
        "digest": cases.digest([outcome["sim"], outcome["detail"]]),
        "counters": outcome["counters"],
    }
    if tracer is not None:
        result["trace"] = folded
        trace_file = {
            **{k: result[k] for k in ("workload", "seed", "scale", "wall_s")},
            "fingerprint": fingerprint(opts.seed, opts.scale),
            "dropped_spans": tracer.dropped_spans,
            **folded,
            "spans": tracer.span_rows(),
        }
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"trace-{opts.workload}.json")
        with open(path, "w") as handle:
            json.dump(trace_file, handle)
            handle.write("\n")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# the parent: spawns repeats, never imports repro


def run_repeat(workload: str, seed: int, scale: float, traced: bool) -> Optional[Dict[str, Any]]:
    """One repeat in a fresh interpreter; ``None`` if it did not finish
    with a result (crash, timeout, unparsable output)."""
    command = [
        sys.executable, "-B", os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--trace", "1" if traced else "0",
    ]
    try:
        done = subprocess.run(
            command, cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=REPEAT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{workload}: repeat killed after {REPEAT_TIMEOUT_S:.0f} s\n")
        return None
    if done.returncode != 0:
        sys.stderr.write(f"{workload}: repeat exited {done.returncode}\n{done.stderr[-2000:]}\n")
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(f"{workload}: repeat printed no result\n")
        return None


def run_workload(
    workload: str, seed: int, scale: float, *,
    seconds: float, repeats: Optional[int], traced: bool,
) -> Dict[str, Any]:
    """All repeats of one workload, folded into one result."""
    started = time.perf_counter()
    outcomes: List[Optional[Dict[str, Any]]] = []
    measured = 0.0
    while len(outcomes) < (repeats or MAX_REPEATS):
        outcome = run_repeat(workload, seed, scale, traced=False)
        outcomes.append(outcome)
        measured += outcome["wall_s"] if outcome else seconds
        if repeats is None and len(outcomes) >= MIN_REPEATS and measured >= seconds:
            break
        if time.perf_counter() - started > RUN_BUDGET_S:
            break
    if traced:
        outcomes.append(run_repeat(workload, seed, scale, traced=True))
    return report.aggregate(workload, outcomes)


def fingerprint(seed: int, scale: float) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    commit = "unknown"
    if os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True, timeout=10,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
        "seed": seed,
        "scale": scale,
    }


def contract_line(result: Dict[str, Any], traced: bool) -> str:
    """The last line of a ``--workload`` run (see BENCHMARK.json)."""
    if traced:
        units = {name: unit for name, (unit, _b) in report.per_layer_units().items()}
        values = result.get("per_layer") or {name: 0.0 for name in units}
    else:
        units = {name: unit for name, unit, _b, _bound in report.END_TO_END}
        values = result["metrics"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    })


def load_bounds() -> Dict[str, Any]:
    """``{metric: (better, bound)}`` as fixed in BENCHMARK.json."""
    with open(MANIFEST) as handle:
        manifest = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in manifest["end_to_end"]}


def results_path(name: str) -> str:
    """Output goes under results/ and nowhere else -- never over a
    repo-root BENCH_*.json."""
    return os.path.join(RESULTS_DIR, os.path.basename(name))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and end with the contract's JSON line")
    parser.add_argument("--seed", type=int, default=1, help="seeds every generated input")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="repeat until the timed regions add up to this")
    parser.add_argument("--repeats", type=int, help="fixed number of untraced repeats instead")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="add the traced pass (per-layer metrics)")
    parser.add_argument("--scale", type=float, help="multiplies the issue's workload sizes")
    parser.add_argument("--out", help="result file name under benchmarks/e2e/results/")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply BENCHMARK.json's bounds to two result files")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    opts = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")) and not opts.compare:
        sys.stderr.write(f"bench_e2e: no program to measure: {SRC_DIR}/repro is missing\n")
        return 2
    if opts.scale is None:
        opts.scale = cases.DEFAULT_SCALE
    if opts.workload is not None and opts.workload not in cases.CASES:
        parser.error(f"unknown workload {opts.workload!r}; pick from {', '.join(cases.CASES)}")
    if opts.child:
        return child_main(opts)

    if opts.compare:
        files = []
        for path in opts.compare:
            with open(path) as handle:
                files.append(json.load(handle))
        lines, regressed = report.compare(files[0], files[1], load_bounds())
        print("\n".join(lines))
        return 1 if regressed else 0

    stamp = fingerprint(opts.seed, opts.scale)
    print("bench_e2e " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    traced = bool(opts.trace)
    if traced and opts.workload and opts.repeats is None:
        # The driver's traced run reports per-layer metrics only: one
        # untraced repeat, to measure the tracing overhead against.
        opts.repeats = 1
    names = [opts.workload] if opts.workload else list(cases.CASES)
    results = {}
    for name in names:
        result = run_workload(
            name, opts.seed, opts.scale,
            seconds=opts.seconds, repeats=opts.repeats, traced=traced,
        )
        results[name] = result
        print("\n".join(report.render_summary(result) + report.render_layers(result)))

    if opts.workload is None or opts.out:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        out = results_path(opts.out or f"e2e-seed{opts.seed}-{int(time.time())}.json")
        with open(out, "w") as handle:
            json.dump({"schema": "bench-e2e/1", "fingerprint": stamp, "workloads": results},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(out, REPO_ROOT)}")
    if opts.workload is not None:
        print(contract_line(results[opts.workload], traced))
        return 0
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
