#!/usr/bin/env python3
"""Watching a DumbNet fabric live through ``repro.obs``.

Builds an obs-enabled leaf-spine fabric, installs a scripted fault
timeline (two link flaps and a loss burst), then advances the
simulation in fixed slices -- printing a dashboard frame between
slices, exactly the loop a terminal UI or scrape agent would run:

* ``fabric.observe()`` is a read-only snapshot: taking one schedules
  no events and draws no randomness, so watching the run cannot
  change it (CI pins this with a golden-trace equivalence test);
* the fabric's event record answers "what happened recently?" per
  category (``fabric.tracer.last``);
* the same snapshot renders as a CLI table or as JSON.

The run asserts all three: every frame leaves the event count, the
pending events and the clock as they were, the record holds one
``fault-applied`` event per scheduled fault, and the JSON snapshot
parses back to the same clock and loop counters.

Run:  python examples/observability.py
"""

import json

from repro.core.telemetry import StatsSwitch, TelemetryCollector
from repro.faultinject import ChaosRunner, FaultSchedule
from repro.topology import leaf_spine


def build_fabric():
    from repro.core.fabric import DumbNetFabric

    topology = leaf_spine(spines=2, leaves=3, hosts_per_leaf=2,
                          num_ports=16)
    return DumbNetFabric.from_topology(
        topology,
        bootstrap="blueprint",
        warm=True,
        controller_host=sorted(topology.hosts)[0],
        seed=7,
        switch_cls=StatsSwitch,   # switches carry in-band counters
        obs=True,                 # the one flag that wires everything
    )


def dashboard_frame(fabric, step: int) -> None:
    loop = fabric.loop
    before = (loop.events_run, loop.pending, fabric.now)
    observation = fabric.observe()
    assert (loop.events_run, loop.pending, fabric.now) == before, (
        "observe() changed the run it watched"
    )
    print(f"\n===== dashboard frame {step} @ t={fabric.now:.3f}s =====")
    print(observation.summary())

    recent = fabric.tracer.last("fault-applied", 3)
    if recent:
        print("recent faults:")
        for event in recent:
            print(f"  t={event.time:.3f}s  {event.node}: {event.detail}")

    lat = fabric.obs.query_latency
    if lat.count:
        print(f"path-query latency: n={lat.count} "
              f"p50={lat.p50 * 1e6:.1f}us p99={lat.p99 * 1e6:.1f}us")


def main() -> None:
    fabric = build_fabric()

    link = min(fabric.topology.links, key=str)
    flap = (link.a.switch, link.a.port, link.b.switch, link.b.port)
    schedule = (
        FaultSchedule()
        .link_flap(0.03, flap, down_for=0.02)
        .loss_burst(0.08, 0.03, rate=0.3, link=flap)
        .link_flap(0.13, flap, down_for=0.02)
    )
    # install() schedules the faults but leaves the driving to us, so
    # we can interleave dashboard frames with simulation slices.
    runner = ChaosRunner(fabric, schedule, traffic_seed=7)
    runner.install()

    agents = sorted(fabric.agents)
    start = fabric.now
    for step in range(4):
        # Some app traffic each slice so counters visibly move.
        src, dst = agents[step % len(agents)], agents[-1 - step % 3]
        if src != dst:
            fabric.agents[src].send_app(dst, f"tick-{step}",
                                        flow_key=f"flow{step}")
        fabric.run(until=fabric.now + 0.05)
        dashboard_frame(fabric, step)

    print(f"\nchaos window spanned {fabric.now - start:.3f} simulated seconds")
    assert fabric.tracer.seen("fault-applied") == len(schedule.events())

    # The same data, machine-readable: JSON for dashboards.
    observation = fabric.observe()
    text = observation.to_json()
    print(f"\nJSON snapshot: {len(text)} bytes")
    parsed, data = json.loads(text), observation.as_dict()
    assert (parsed["now"], parsed["loop"]) == (data["now"], data["loop"])

    # In-band telemetry speaks the same report protocol.
    report = TelemetryCollector(fabric.controller, fabric.network).collect()
    print(f"\n{report.summary()}")


if __name__ == "__main__":
    main()
