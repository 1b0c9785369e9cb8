#!/usr/bin/env python3
"""Chaos-testing a DumbNet fabric with the fault-injection harness.

Three escalating demos of ``repro.faultinject``:

* a *scripted* schedule on the paper's testbed -- flap a spine uplink,
  inject a loss burst, crash a spine switch -- while the runner checks
  loop-freedom and cache coherence continuously and reachability at
  quiesce;
* a *seeded random* schedule (seed 42, 22 faults) on a fat-tree(4)
  with two standby controllers, including a switch crash and a
  controller failover, printing the applied timeline;
* the same seed run twice, demonstrating byte-identical timelines.

CI runs this file, so its asserts are the seeded chaos gate: both
random runs finish with no invariant violation and every connected
pair reconnected, the controllers' path service served the run (its
hit / miss counters are not both zero), and the two timeline digests
are identical.

Run:  python examples/chaos_testing.py
"""

from repro.faultinject import (
    ChaosRunner,
    FaultSchedule,
    build_chaos_fabric,
)
from repro.topology import fat_tree, paper_testbed


def scripted_demo() -> None:
    print("=== Scripted schedule on the paper testbed ===")
    fabric = build_chaos_fabric(
        paper_testbed(), seed=11, controller_hosts=["h0_0", "h1_0"]
    )
    schedule = (
        FaultSchedule()
        .link_flap(0.05, ("leaf2", 1, "spine0", 3), down_for=0.05)
        .loss_burst(0.12, 0.05, rate=0.4, link=("leaf3", 2, "spine1", 4))
        .switch_crash(0.22, "spine1", restart_after=0.08)
    )
    report = ChaosRunner(fabric, schedule, traffic_seed=11).run()
    print(report.summary())
    print()


def random_demo(seed: int) -> str:
    fabric = build_chaos_fabric(fat_tree(4), seed=seed)
    schedule = FaultSchedule.random(
        fabric.topology,
        seed=seed,
        n_faults=22,
        protect_hosts=(fabric.controller_host, *fabric.standbys),
    )
    report = ChaosRunner(fabric, schedule, traffic_seed=seed).run()
    for line in report.applied:
        print(f"  {line}")
    print(report.summary())
    assert report.ok(), "chaos run found violations or unreachable pairs"
    served = report.path_service
    assert served.get("hits", 0) + served.get("misses", 0) > 0, (
        "the path service is not wired into the serving path"
    )
    return report.timeline_digest()


def main() -> None:
    scripted_demo()

    print("=== Seeded random schedule on fat-tree(4), 3 controllers ===")
    digest = random_demo(seed=42)
    print()

    print("=== Same seed again: the timeline must be identical ===")
    again = random_demo(seed=42)
    verdict = "identical" if digest == again else "DIVERGED"
    print(f"timeline digests: {digest[:16]}... vs {again[:16]}... -> {verdict}")
    assert digest == again


if __name__ == "__main__":
    main()
