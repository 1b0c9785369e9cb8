"""Workload-suite TE bake-off: the (workload x TE x engine) scorecard.

Standalone (not a pytest bench -- CI runs it directly):

    PYTHONPATH=src python benchmarks/bench_workloads.py

Every cell is one :func:`repro.workloads.run_scenario` call: a
canonical workload family (websearch / datamining trace replay, incast
fan-in sweep, elephant+mice mix, storage write fan-out, tenant churn)
under one TE mechanism (flowlet, ECMP, pHost-style spraying, ECN-aware
rerouting) on one dataplane engine, reduced to FCT p50/p99, goodput,
path-table pressure and reroute counts.  The engine axis is the two
ends of the fidelity range: ``fluid`` (max-min) and ``hybrid`` with
every flow promoted (``roi=RegionOfInterest.all()``, frame trains on
the same paths).  An empty-ROI hybrid cell would only repeat the fluid
one; ``tests/test_scenarios.py`` pins that equality instead.

Gates:

* **schema** -- every cell carries the full metric set;
* **coverage** -- >= 5 workload families x >= 4 TE mechanisms;
* **determinism** -- a re-run of the fluid slice under the same pinned
  seed must reproduce its cells byte for byte (the Workload contract:
  all randomness flows through one seeded generator);
* **spray shape** -- spray cells carry k subflows per request.

Both engines run on every family (~3 s).  Results land in
``BENCH_workloads.json`` at the repo root; CI regenerates it and diffs
it against the committed file.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(__file__))

from repro.hybrid import RegionOfInterest
from repro.topology import leaf_spine
from repro.workloads import (
    ENGINES,
    Scenario,
    ScorecardReport,
    TE_MECHANISMS,
    canonical_suite,
    run_scenario,
)

from _util import REPO_ROOT, publish_json

SEED = 3

#: Spine-link rate.  Hosts keep 10G NICs, so the 2x2.5G core is the
#: bottleneck for inter-leaf traffic -- without oversubscription every
#: TE mechanism saturates the same host NICs and the columns collapse
#: to one number.
CORE_LINK_BPS = 2.5e9

REQUIRED_CELL_KEYS = (
    "workload", "te", "engine", "seed", "requests", "flows",
    "stalled_flows", "duration_s", "fct_p50_s", "fct_p99_s", "fct_mean_s",
    "goodput_bps", "path_table_entries", "path_table_pairs",
    "max_paths_per_pair", "reroutes", "subflows",
)


def grid_topology():
    """20 hosts, 2x2 leaf-spine: enough for the fan-in-16 incast round
    and the four-slice tenant partition, small enough for all-promoted
    cells."""
    return leaf_spine(spines=2, leaves=2, hosts_per_leaf=10, num_ports=64)


def run_cell(workload, te: str, engine: str) -> dict:
    scenario = Scenario(
        workload, te=te, engine=engine, topology=grid_topology,
        link_bps=CORE_LINK_BPS, host_bps=10e9, seed=SEED,
        roi=RegionOfInterest.all() if engine == "hybrid" else None,
    )
    return run_scenario(scenario).cell()


def build_scorecard() -> ScorecardReport:
    report = ScorecardReport(
        meta={
            "seed": SEED,
            "topology": "leaf_spine(2 spines, 2 leaves, 10 hosts/leaf)",
            "core_link_bps": CORE_LINK_BPS,
            "host_bps": 10e9,
            "hybrid_roi": "all",
            "scale": 1.0,
        }
    )
    for workload in canonical_suite():
        for te in TE_MECHANISMS:
            for engine in ENGINES:
                t0 = time.perf_counter()
                cell = run_cell(workload, te, engine)
                wall = time.perf_counter() - t0
                print(
                    f"[{workload.name:>13s} {te:>7s} {engine:>6s}] "
                    f"p99={cell['fct_p99_s']:.5f}s "
                    f"goodput={cell['goodput_bps'] / 1e9:6.2f} Gbps "
                    f"entries={cell['path_table_entries']:4d} "
                    f"wall={wall:5.2f}s"
                )
                report.add(cell)
    return report


def main() -> int:
    failures = []

    report = build_scorecard()
    payload = report.as_dict()

    # Gate: schema -- every cell carries the full metric set.
    for workload, by_te in payload["cells"].items():
        for te, by_engine in by_te.items():
            for engine, cell in by_engine.items():
                missing = [k for k in REQUIRED_CELL_KEYS if k not in cell]
                if missing:
                    failures.append(
                        f"cell {workload}/{te}/{engine} missing {missing}"
                    )

    # Gate: coverage -- the bake-off's contract.
    if len(payload["workloads"]) < 5:
        failures.append(
            f"only {len(payload['workloads'])} workload families "
            f"({payload['workloads']}); need >= 5"
        )
    if len(payload["mechanisms"]) < 4:
        failures.append(
            f"only {len(payload['mechanisms'])} TE mechanisms "
            f"({payload['mechanisms']}); need >= 4"
        )

    # Gate: spray shape -- k subflows per request at the fluid level.
    for workload, by_te in payload["cells"].items():
        spray = by_te.get("spray", {}).get("fluid")
        if spray and spray["flows"] != spray["subflows"] * (
            spray["flows"] // spray["subflows"]
        ):
            failures.append(f"{workload}/spray: flow count not a multiple of k")

    # Gate: determinism -- the fluid slice must reproduce byte for byte.
    for workload, by_te in payload["cells"].items():
        wl = next(
            w for w in canonical_suite()
            if w.name == workload
        )
        for te, by_engine in by_te.items():
            if "fluid" not in by_engine:
                continue
            rerun = run_cell(wl, te, "fluid")
            if json.dumps(rerun, sort_keys=True) != json.dumps(
                by_engine["fluid"], sort_keys=True
            ):
                failures.append(
                    f"{workload}/{te}/fluid not deterministic under seed {SEED}"
                )
            break  # one mechanism per family keeps the gate cheap

    print()
    print(report.summary())
    publish_json(
        "bench_workloads", payload,
        path=os.path.join(REPO_ROOT, "BENCH_workloads.json"),
    )

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
