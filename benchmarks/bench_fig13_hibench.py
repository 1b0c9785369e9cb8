"""Figure 13: HiBench task durations on the testbed topology.

Paper: five HiBench tasks (Aggregation, Join, Pagerank, Terasort,
Wordcount) on the 27-server leaf-spine testbed with spine ports limited
to 500 Mbps; flowlet TE enabled.  "DumbNet outperforms conventional
network in all the tasks.  Flowlet TE plays an important role...  the
performance becomes much worse in the single-path setting."  Series:
DumbNet (flowlet TE) < No-op DPDK (kernel ECMP) < DumbNet single path.

Flow-level reproduction: the same task DAGs run under three path
policies over the fluid simulator -- flowlet-style rebalancing
(DumbNet), static flow hashing (the conventional-stack ECMP behaviour),
and a single fixed shortest path (DumbNet without TE).
"""

import os
import sys

if __name__ == "__main__":  # standalone CLI: repo src + sibling _util
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    sys.path.insert(0, os.path.dirname(__file__))

import pytest

from repro.analysis import render_table
from repro.topology import paper_testbed
from repro.workloads import (
    HIBENCH_TASKS,
    HiBenchWorkload,
    Scenario,
    legacy_task_rng,
    run_scenario,
)

from _util import publish

SPINE_PORT_BPS = 500e6  # "we limit spine switch port speed to 500 Mbps"
#: Shuffle volume multiplier: sized so network time lands in the tens
#: of seconds (the paper's 50-250 s durations include compute time,
#: which a network simulator does not model).
TASK_SCALE = 4.0

#: Series name -> (TE mechanism, mechanism options).  The same names
#: :func:`repro.core.te.make_flow_policy` resolves, so the bench can no
#: longer drift from what "flowlet" means elsewhere.
POLICIES = {
    "DumbNet": ("flowlet", {"k": 4}),
    "DumbNet Single Path": ("single", {}),
    "No-op DPDK": ("ecmp", {"k": 2, "seed": 7}),
}

#: The seed the legacy ``hibench_task(..., seed=11)`` call used; fed
#: through :func:`repro.workloads.legacy_task_rng` so the migrated
#: matrix replays the exact same task DAGs.
TASK_SEED = 11


def run_matrix(engine="fluid", roi=None, tasks=None, scale=TASK_SCALE):
    """Task-duration matrix across the three path policies.

    One :func:`repro.workloads.run_scenario` call per cell;
    ``engine``/``roi`` select the dataplane fidelity (the default is
    the plain fluid simulator, unchanged).
    """
    durations = {}
    for policy_name, (te, te_kwargs) in POLICIES.items():
        for task_name in tasks or HIBENCH_TASKS:
            scenario = Scenario(
                HiBenchWorkload(task_name, scale=scale),
                te=te,
                engine=engine,
                topology=paper_testbed,
                te_kwargs=te_kwargs,
                link_bps=10e9,
                host_bps=10e9,
                switch_overrides={
                    "spine0": SPINE_PORT_BPS,
                    "spine1": SPINE_PORT_BPS,
                },
                roi=roi,
                rebalance_interval_s=0.05,
            )
            run = run_scenario(scenario, rng=legacy_task_rng(TASK_SEED, task_name))
            durations[(policy_name, task_name)] = run.result.duration_s
    return durations


def test_fig13_hibench(benchmark):
    durations = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    rows = []
    for task in HIBENCH_TASKS:
        rows.append(
            (task,)
            + tuple(
                f"{durations[(policy, task)]:.1f}" for policy in POLICIES
            )
        )
    text = render_table(
        ["Task"] + list(POLICIES),
        rows,
        title=(
            "Figure 13: HiBench-analogue task duration (s), testbed "
            "topology, 500 Mbps spine ports.\n"
            "Paper ordering: DumbNet (flowlet TE) fastest, single path slowest."
        ),
    )
    publish("fig13_hibench", text)

    for task in HIBENCH_TASKS:
        dumbnet = durations[("DumbNet", task)]
        single = durations[("DumbNet Single Path", task)]
        ecmp = durations[("No-op DPDK", task)]
        # DumbNet with flowlet TE beats both alternatives.
        assert dumbnet <= ecmp * 1.02, f"{task}: TE slower than ECMP"
        assert dumbnet < single, f"{task}: TE slower than single path"
        # Single path is the worst configuration.
        assert single >= ecmp * 0.98, f"{task}: single path beat ECMP"


def main(argv=None) -> int:
    import argparse
    import time

    from repro.hybrid import RegionOfInterest

    parser = argparse.ArgumentParser(
        description="Figure 13 HiBench-analogue task durations"
    )
    parser.add_argument(
        "--engine", choices=("fluid", "hybrid"), default="fluid",
        help="dataplane fidelity",
    )
    parser.add_argument(
        "--roi-host", action="append", default=None, metavar="HOST",
        help="hybrid: promote flows touching HOST (repeatable; "
        "default: first testbed host)",
    )
    parser.add_argument(
        "--task", action="append", default=None, choices=list(HIBENCH_TASKS),
        help="run only these tasks (repeatable; default: all)",
    )
    parser.add_argument(
        "--scale", type=float, default=TASK_SCALE,
        help="shuffle volume multiplier (default %(default)s)",
    )
    opts = parser.parse_args(argv)
    roi = None
    if opts.engine == "hybrid":
        hosts = opts.roi_host or [paper_testbed().hosts[0]]
        roi = RegionOfInterest.of_hosts(*hosts)
    t0 = time.perf_counter()
    durations = run_matrix(opts.engine, roi, tasks=opts.task, scale=opts.scale)
    wall = time.perf_counter() - t0
    for (policy, task), duration in sorted(durations.items()):
        print(f"[{opts.engine}] {policy:20s} {task:12s} {duration:8.2f}s")
    print(f"wall {wall:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
