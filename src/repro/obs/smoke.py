"""Observability smoke run -- the CI gate for ``repro.obs``.

``python -m repro.obs.smoke`` builds an obs-enabled leaf-spine fabric,
drives traffic, a link flap through the Edge-accepting fail/restore
API, and a scripted mini chaos timeline, then checks that:

* ``fabric.observe().to_json()`` round-trips through ``json.loads``,
* the Prometheus exposition output passes the strict validator,
* the live histograms, the event record, and sampled counters are
  actually populated (a wiring regression would leave them empty),
* taking a snapshot is side-effect free (no events scheduled, clock
  unmoved),
* the report protocol holds across FabricReport, ChaosReport, and the
  Observation itself.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..core.fabric import DumbNetFabric
from ..core.telemetry import StatsSwitch, TelemetryCollector
from ..faultinject.runner import ChaosFabric, ChaosRunner
from ..faultinject.schedule import FaultSchedule
from ..topology import leaf_spine
from .export import parse_prometheus
from .report import ReportBase

__all__ = ["run", "main"]


def run(seed: int = 23, verbose: bool = True) -> int:
    failures = 0

    def check(ok: bool, label: str) -> None:
        nonlocal failures
        if verbose or not ok:
            print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures += 1

    topology = leaf_spine(2, 3, 2, num_ports=16)
    fabric = DumbNetFabric.from_topology(
        topology,
        bootstrap="blueprint",
        warm=True,
        controller_host=sorted(topology.hosts)[0],
        seed=seed,
        switch_cls=StatsSwitch,
        obs=True,
    )

    # A link flap through the Edge-accepting overload, plus a scripted
    # chaos burst so the event record sees applied faults.
    link = sorted(topology.links, key=lambda l: str(l.key()))[0]
    fabric.fail_link(link)
    fabric.run_until_idle()
    fabric.restore_link(link)
    fabric.run_until_idle()

    flap_target = (link.a.switch, link.a.port, link.b.switch, link.b.port)
    schedule = (FaultSchedule()
                .link_flap(0.01, flap_target, down_for=0.02))
    runner = ChaosRunner(ChaosFabric.wrap(fabric), schedule, traffic_seed=seed)
    chaos = runner.run()

    observation = fabric.observe()

    # Snapshots are side-effect free.
    pending_before, clock_before = fabric.loop.pending, fabric.now
    fabric.observe()
    check(fabric.loop.pending == pending_before, "observe() schedules nothing")
    check(fabric.now == clock_before, "observe() leaves the clock alone")

    # JSON round-trip.
    decoded = json.loads(observation.to_json())
    check(decoded["kind"] == "observation", "to_json() round-trips")
    check(decoded["now"] == fabric.now, "snapshot carries the sim clock")

    # Prometheus exposition parses and is non-trivial.
    exposition = observation.to_prometheus()
    counts = parse_prometheus(exposition)
    check(len(counts) >= 20, f"prometheus exposition parses ({len(counts)} metrics)")
    check(any(name.endswith("_bucket") for name in counts),
          "exposition includes histogram buckets")

    # Live metrics populated.
    hub = fabric.obs
    assert hub is not None
    check(hub.link_queue_wait.count > 0, "link queueing histogram populated")
    check(hub.nic_queue_wait.count > 0, "NIC queueing histogram populated")
    check(hub.query_latency.count > 0, "path-query latency histogram populated")
    check(hub.path_tags.count > 0, "path-length histogram populated")
    check(fabric.tracer.seen("fault-applied") == len(chaos.applied) == 2,
          "event record saw the applied faults")
    check(decoded["switches"] and all(
        row["forwarded"] > 0 for row in decoded["switches"].values()
    ), "switch counters sampled")
    check(decoded["controller"]["path_service"].get("misses", 0) > 0,
          "path-service counters sampled")

    # Chaos run stayed healthy under observation.
    check(chaos.ok(), "chaos run clean (no violations, all pairs reconnect)")

    # The one report protocol: every report speaks it.
    telemetry = TelemetryCollector(fabric.controller, fabric.network).collect()
    for report in (observation, telemetry, chaos):
        name = type(report).__name__
        check(isinstance(report, ReportBase), f"{name} is a ReportBase")
        check(bool(json.loads(report.to_json())), f"{name}.to_json() round-trips")
        check(isinstance(report.summary(), str), f"{name}.summary() renders")
    check(telemetry.rows and not telemetry.unreachable,
          "telemetry polled every switch")

    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--quiet", action="store_true",
                        help="print failures only")
    opts = parser.parse_args(argv)
    failures = run(seed=opts.seed, verbose=not opts.quiet)
    print("obs smoke FAILED" if failures else "obs smoke PASSED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
