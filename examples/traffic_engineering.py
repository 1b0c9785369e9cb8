#!/usr/bin/env python3
"""Flowlet-based traffic engineering (Section 6.2 + Figure 13 story).

Two views of the same extension, both selected through the one
first-class TE knob (``te="flowlet"`` -- see :mod:`repro.core.te`):

1. **Packet level** -- bring up a fabric with
   ``DumbNetFabric.from_topology(..., te="flowlet")`` and watch one
   large flow spread its flowlets across all four spines.
2. **Flow level** -- run a HiBench-analogue Terasort shuffle through
   :func:`repro.workloads.run_scenario` under three TE mechanisms
   (flowlet rebalancing, ECMP hashing, single path) and compare
   completion times, the Figure 13 comparison.

Run:  python examples/traffic_engineering.py
"""

from collections import Counter

from repro.core.fabric import DumbNetFabric
from repro.topology import leaf_spine, paper_testbed
from repro.workloads import (
    HiBenchWorkload,
    Scenario,
    legacy_task_rng,
    run_scenario,
)


def packet_level_demo() -> Counter:
    print("Packet level: one flow, many flowlets, four spines")
    topo = leaf_spine(spines=4, leaves=2, hosts_per_leaf=2, num_ports=32)
    fabric = DumbNetFabric.from_topology(
        topo,
        bootstrap="blueprint",
        te="flowlet",
        te_kwargs={"gap_s": 1e-6},
        controller_host="h0_0",
        seed=5,
    )
    fabric.warm_paths([("h0_1", "h1_1")])

    agent = fabric.agents["h0_1"]
    router = fabric.te_routers["h0_1"]

    spine_use = Counter()
    original = agent.send_tagged

    def spy(tags, payload, payload_bytes=0, dst=""):
        if dst == "h1_1":
            spine_use[f"spine{tags[0] - 1}"] += 1
        return original(tags, payload, payload_bytes, dst)

    agent.send_tagged = spy
    for i in range(200):
        agent.send_app("h1_1", ("chunk", i), flow_key="one-big-transfer")
        fabric.run_until_idle()  # every gap starts a new flowlet

    print(f"  200 packets, {router.flowlets_started} flowlets, "
          f"{router.path_switches} path switches")
    for spine, count in sorted(spine_use.items()):
        bar = "#" * (count // 2)
        print(f"  {spine}: {count:4d} {bar}")
    return spine_use


def flow_level_demo() -> dict:
    print("\nFlow level: Terasort shuffle on the testbed, 500 Mbps spines")
    mechanisms = {
        "DumbNet flowlet TE": ("flowlet", {"k": 4}),
        "Conventional ECMP": ("ecmp", {"k": 2, "seed": 3}),
        "Single path": ("single", {}),
    }
    durations = {}
    for name, (te, te_kwargs) in mechanisms.items():
        scenario = Scenario(
            HiBenchWorkload("Terasort", scale=0.25),
            te=te,
            topology=paper_testbed,
            te_kwargs=te_kwargs,
            link_bps=10e9,
            host_bps=10e9,
            switch_overrides={"spine0": 500e6, "spine1": 500e6},
        )
        run = run_scenario(scenario, rng=legacy_task_rng(7, "Terasort"))
        print(f"  {name:22s} {run.result.duration_s:8.1f} s")
        durations[te] = run.result.duration_s
    return durations


def main() -> None:
    spine_use = packet_level_demo()
    assert len(spine_use) == 4, spine_use  # the one flow used every spine
    durations = flow_level_demo()
    # Figure 13's order: flowlet TE no slower than ECMP, both ahead of one path.
    assert durations["flowlet"] <= durations["ecmp"] < durations["single"], durations


if __name__ == "__main__":
    main()
