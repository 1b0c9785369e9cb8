"""Metric tables, aggregation over repeats, comparison and rendering.

Nothing here prints (``tools/check_no_print.py benchmarks`` allows that
only in ``bench_*.py``); functions return data or lines of text.

The metric tables are the single source for ``BENCHMARK.json``: its
``end_to_end`` and ``per_layer`` lists are :func:`benchmark_manifest`
written out, and ``test_bench_e2e.py`` fails when the two drift apart.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from e2e_cases import CASES
from e2e_layers import LAYERS

__all__ = [
    "END_TO_END",
    "PER_LAYER_EXTRAS",
    "SIM_STATS",
    "aggregate",
    "benchmark_manifest",
    "compare",
    "layer_metrics",
    "render_layers",
    "render_summary",
    "spread",
]

#: (name, unit, better, bound).  All host-side.  ``ok_share`` is the
#: issue's ``fail_share`` turned round (1 - failed/attempted): the contract
#: wants metrics that are never 0 and a bound relative to the parent's
#: median, and "any increase of fail_share" is "ok_share may not fall".
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("ok_share", "ratio", "higher", 0.001),
)

#: Per-layer metrics beyond calls / self_s / share: (name, unit, better,
#: exact).  ``exact`` marks the counts that must repeat run to run (the
#: issue's dagger); the others are host-time readings.
PER_LAYER_EXTRAS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("netsim.events.events", "count", "lower", True),
    ("netsim.events.per_s", "1/s", "higher", False),
    ("netsim.channel.frames", "count", "lower", True),
    ("netsim.channel.drops", "count", "lower", True),
    ("core.switch.forwarded", "count", "lower", True),
    ("core.switch.dropped", "count", "lower", True),
    ("core.host_agent.app_sent", "count", "lower", True),
    ("core.host_agent.path_queries", "count", "lower", True),
    ("core.host_agent.pathtable_hit_share", "ratio", "higher", True),
    ("core.controller.requests_served", "count", "lower", True),
    ("core.discovery.probes", "count", "lower", True),
    ("core.pathservice.lookups", "count", "lower", True),
    ("core.pathservice.hit_share", "ratio", "higher", True),
    ("core.pathservice.tree_builds", "count", "lower", True),
    ("core.pathservice.link_evictions", "count", "lower", True),
    ("core.pathservice.query_us_p50", "us", "lower", False),
    ("core.pathservice.query_us_p99", "us", "lower", False),
    ("core.pathgraph.builds", "count", "lower", True),
    ("core.pathshard.global_share", "ratio", "lower", True),
    ("core.pathshard.changes", "count", "lower", True),
    ("consensus.store.commits", "count", "lower", True),
    ("consensus.store.drops", "count", "lower", True),
    ("topology.graph.sssp_calls", "count", "lower", True),
    ("topology.graph.kpaths_calls", "count", "lower", True),
    ("flowsim.maxmin.solves", "count", "lower", True),
    ("flowsim.maxmin.us_per_solve", "us", "lower", False),
    ("flowsim.maxmin.flows_per_solve", "count", "lower", True),
    ("flowsim.simulator.epochs", "count", "lower", True),
    ("flowsim.simulator.recompute_skips", "count", "higher", True),
    ("hybrid.engine.couplings", "count", "lower", True),
    ("hybrid.engine.consistency_max_rel_err", "ratio", "lower", True),
    ("hybrid.packet_region.frames", "count", "lower", True),
    ("hybrid.packet_region.events", "count", "lower", True),
    ("workloads.api.materialise_s", "s", "lower", False),
    ("workloads.api.flows", "count", "lower", True),
    ("faultinject.runner.faults", "count", "lower", True),
    ("faultinject.runner.invariant_checks", "count", "lower", True),
    ("trace.overhead_ratio", "ratio", "lower", False),
)

#: Simulated statistics: the contract, not the performance.  Reported
#: exactly and hashed into ``sim.digest``; 0 where a workload has none.
SIM_STATS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.duration_s", "s", "lower"),
    ("sim.discovery_s", "s", "lower"),
    ("sim.rtt_p50_s", "s", "lower"),
    ("sim.rtt_p99_s", "s", "lower"),
    ("sim.quiesce_s", "s", "lower"),
    ("sim.fct_p50_s", "s", "lower"),
    ("sim.fct_p99_s", "s", "lower"),
    ("sim.goodput_bps", "bit/s", "higher"),
)

LAYER_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("calls", "count"), ("self_s", "s"), ("share", "ratio"),
)

#: Entry points behind the two shim-only call counts.
SSSP_TARGETS = (
    "repro.topology.graph:Topology.sssp_tree",
    "repro.topology.graph:Topology.shortest_switch_path",
)
KPATHS_TARGET = "repro.topology.graph:Topology.k_shortest_switch_paths"
MAXMIN_TARGET = "repro.flowsim.simulator:max_min_rates"

EXACT_COUNTERS = frozenset(name for name, _u, _b, exact in PER_LAYER_EXTRAS if exact)


def per_layer_units() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    table: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        for column, unit in LAYER_COLUMNS:
            table[f"{layer}.{column}"] = (unit, "lower")
    for name, unit, better, _exact in PER_LAYER_EXTRAS:
        table[name] = (unit, better)
    for name, unit, better in SIM_STATS:
        table[name] = (unit, better)
    return table


def benchmark_manifest(command: Sequence[str], paths: Sequence[str], run_seconds: int) -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": list(command),
        "paths": list(paths),
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": case.why} for name, case in CASES.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, (u, b) in per_layer_units().items()
        ],
    }


# ----------------------------------------------------------------------
# statistics


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median; unknown
    (infinite) for a single value, 0 for a metric that has no samples."""
    if len(values) < 2:
        return math.inf if values else 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def exact_view(repeat: Dict[str, Any]) -> Dict[str, Any]:
    """What must be identical between repeats of one (workload, seed)."""
    counters = repeat["counters"]
    return {
        "digest": repeat["digest"],
        "attempted": repeat["attempted"],
        "failed": repeat["failed"],
        "counters": {k: counters[k] for k in sorted(counters) if k in EXACT_COUNTERS},
    }


def aggregate(name: str, repeats: List[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
    """Fold the repeats of one workload into its end-to-end result.

    ``None`` stands for a repeat that crashed, timed out or printed no
    result.  Such a repeat, or repeats that disagree on anything that must
    be exact, count every operation as failed.
    """
    good = [r for r in repeats if r is not None]
    untraced = [r for r in good if not r["traced"]]
    result: Dict[str, Any] = {"workload": name, "repeats": len(repeats)}
    if not untraced:
        result.update(correct=False, attempted=1, failed=1, deterministic=False,
                      crashed=len(repeats) - len(good), metrics={}, samples={})
        return result
    first = untraced[0]
    views = [exact_view(r) for r in good]
    deterministic = all(view == views[0] for view in views)
    crashed = len(repeats) - len(good)
    attempted = first["attempted"]
    failed = first["failed"] if deterministic and not crashed else attempted
    samples = {
        "setup_s": [r["setup_s"] for r in untraced],
        "wall_s": [r["wall_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    # Interference on a shared host only ever adds time, and it comes in
    # bursts that can cover most repeats of a run: the fastest repeat is
    # the steadiest estimate of a region's own cost (README, Noise).
    metrics = {
        "setup_s": min(samples["setup_s"]),
        "wall_s": min(samples["wall_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    metrics["ok_share"] = 1.0 - failed / attempted
    result.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        deterministic=deterministic,
        crashed=crashed,
        metrics=metrics,
        samples=samples,
        fail_share=failed / attempted,
        work=first["work"],
        work_unit=first["work_unit"],
        work_per_s=first["work"] / metrics["wall_s"],
        digest=first["digest"],
        sim=first["sim"],
        exact=views[0]["counters"],
    )
    traced = [r for r in good if r["traced"]]
    if traced:
        result["per_layer"] = layer_metrics(traced[0], metrics["wall_s"], first["counters"])
        result["layer_status"] = {
            layer: row["status"] for layer, row in traced[0]["trace"]["layers"].items()
        }
    return result


def layer_metrics(
    traced: Dict[str, Any], untraced_wall_s: float, untraced_counters: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric of one traced repeat, 0 where not applicable.

    Host-time readings the workload takes itself (query latencies) come
    from the untraced repeat: the shims would inflate them.
    """
    trace = traced["trace"]
    wall = traced["wall_s"]
    counters = traced["counters"]
    entry = trace["entry_points"]
    metrics = {name: 0.0 for name in per_layer_units()}
    for layer, row in trace["layers"].items():
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.share"] = row["self_s"] / wall if wall else 0.0
    metrics.update(counters)
    metrics.update(
        {k: v for k, v in untraced_counters.items() if k not in EXACT_COUNTERS}
    )
    metrics.update(traced["sim"])

    def calls(target: str) -> int:
        return entry.get(target, {}).get("calls", 0)

    metrics["topology.graph.sssp_calls"] = sum(calls(t) for t in SSSP_TARGETS)
    metrics["topology.graph.kpaths_calls"] = calls(KPATHS_TARGET)
    solves = calls(MAXMIN_TARGET)
    if solves:
        maxmin = trace["layers"]["flowsim.maxmin"]["self_s"]
        metrics["flowsim.maxmin.us_per_solve"] = maxmin / solves * 1e6
        metrics["flowsim.maxmin.flows_per_solve"] = entry[MAXMIN_TARGET]["items"] / solves
    metrics["workloads.api.materialise_s"] = sum(
        row["inclusive_s"] for target, row in entry.items() if target.endswith(".program")
    )
    events = counters.get("netsim.events.events", 0)
    metrics["netsim.events.per_s"] = events / untraced_wall_s if untraced_wall_s else 0.0
    metrics["trace.overhead_ratio"] = wall / untraced_wall_s if untraced_wall_s else 0.0
    return metrics


# ----------------------------------------------------------------------
# comparison of two result files


def compare(a: Dict[str, Any], b: Dict[str, Any], bounds: Dict[str, Tuple[str, float]]) -> Tuple[List[str], int]:
    """Lines of a per metric x workload verdict of ``b`` against ``a``,
    and the number of ``regressed`` verdicts.

    *unresolved* means the repeats of either side spread wider than the
    metric's bound, so a difference of that size cannot be told from
    noise; it is reported as such, never as unchanged.
    """
    lines = [f"{'workload':<20} {'metric':<12} {'A':>11} {'B':>11} {'worse by':>9} "
             f"{'spread':>7} {'bound':>6}  verdict"]
    regressed = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name:<20} missing from B")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (better, bound) in bounds.items():
            if metric not in wa["metrics"] or metric not in wb["metrics"]:
                lines.append(f"{name:<20} {metric:<12} no value on one side  unresolved")
                continue
            va, vb = wa["metrics"][metric], wb["metrics"][metric]
            worse = (vb - va) / va if better == "lower" else (va - vb) / va
            wide = max(spread(wa["samples"].get(metric, ())),
                       spread(wb["samples"].get(metric, ())))
            if wide > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "unchanged"
            lines.append(
                f"{name:<20} {metric:<12} {va:>11.4f} {vb:>11.4f} {worse:>+9.3f} "
                f"{wide:>7.3f} {bound:>6.3f}  {verdict}"
            )
        same = wa.get("digest") == wb.get("digest") and wa.get("exact") == wb.get("exact")
        lines.append(f"{name:<20} sim.digest and exact counts: "
                     f"{'identical' if same else 'CHANGED'}")
    return lines, regressed


# ----------------------------------------------------------------------
# rendering


def render_summary(result: Dict[str, Any]) -> List[str]:
    """Human-readable lines for one workload: every metric by name + unit."""
    name = result["workload"]
    if not result["metrics"]:
        return [f"{name}: no repeat produced a result (fail_share = 1)"]
    m = result["metrics"]
    units = {n: u for n, u, _b, _bound in END_TO_END}
    lines = [
        f"{name}: {'ok' if result['correct'] else 'FAILED'}  "
        f"fail_share={result['fail_share']:.6g} ratio "
        f"({result['failed']}/{result['attempted']} ops)  "
        f"repeats={result['repeats']} deterministic={result['deterministic']} "
        f"crashed={result['crashed']}",
    ]
    for metric in ("setup_s", "wall_s", "peak_rss_mb", "ok_share"):
        values = result["samples"].get(metric)
        how = "median" if metric == "peak_rss_mb" else "fastest"
        tail = f"  ({how} of {len(values)}, spread {spread(values):.3f})" if values else ""
        lines.append(f"  {metric:<12} {m[metric]:.6f} {units[metric]}{tail}")
    lines.append(f"  {'work':<12} {result['work']} {result['work_unit']}  "
                 f"({result['work_per_s']:.1f} {result['work_unit']}/s)")
    lines.append(f"  {'sim.digest':<12} {result['digest']}")
    for key, value in result["sim"].items():
        lines.append(f"  {key:<16} {value!r}")
    return lines


def render_layers(result: Dict[str, Any]) -> List[str]:
    """The traced pass: a row per layer, then the named counters."""
    metrics = result.get("per_layer")
    if metrics is None:
        return []
    units = per_layer_units()
    status = result["layer_status"]
    lines = [f"  {'layer':<22} {'calls':>10} {'self_s':>10} {'share':>7}  status"]
    ranked = sorted(LAYERS, key=lambda layer: -metrics[f"{layer}.self_s"])
    for layer in ranked:
        lines.append(
            f"  {layer:<22} {metrics[f'{layer}.calls']:>10.0f} "
            f"{metrics[f'{layer}.self_s']:>10.4f} {metrics[f'{layer}.share']:>7.3f}  "
            f"{status.get(layer, 'absent')}"
        )
    for name, _unit, _better, exact in PER_LAYER_EXTRAS:
        if metrics[name]:
            lines.append(f"  {name:<40} {metrics[name]:.6g} {units[name][0]}"
                         f"{'  (exact)' if exact else ''}")
    return lines
