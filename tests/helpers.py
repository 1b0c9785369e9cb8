"""Test-only generators and drivers.

Code the test suite needs that no program under ``src/`` runs: the
random connected topology the hypothesis properties draw, the incast
packet driver the native golden traces pin, the seeded HiBench task
builder, and blocking drivers of the rediscovery engine.  Nothing under
``src/`` may import this module.
"""

import random
from dataclasses import dataclass
from typing import Tuple

from repro.core.discovery import RediscoveryEngine
from repro.topology import Topology
from repro.workloads import FlowProgram, FlowSpec
from repro.workloads.hibench import _build_task, legacy_task_rng


def random_connected(
    num_switches: int,
    extra_links: int = 0,
    hosts_per_switch: int = 1,
    num_ports: int = 64,
    seed: int = 0,
) -> Topology:
    """Random spanning tree plus ``extra_links`` random chords."""
    if num_switches < 1:
        raise ValueError("need at least one switch")
    rng = random.Random(seed)
    topo = Topology()
    names = [f"r{i}" for i in range(num_switches)]
    for name in names:
        topo.add_switch(name, num_ports)
    free = {name: list(range(1, num_ports - hosts_per_switch + 1)) for name in names}
    # Random spanning tree: attach each new node to a random earlier one.
    for i in range(1, num_switches):
        parent = names[rng.randrange(i)]
        child = names[i]
        if not free[parent]:
            parent = next(n for n in names[:i] if free[n])
        topo.add_link(parent, free[parent].pop(0), child, free[child].pop(0))
    added = 0
    attempts = 0
    if num_switches < 2:
        extra_links = 0  # nothing to chord in a one-switch fabric
    while added < extra_links and attempts < 100 * (extra_links + 1):
        attempts += 1
        a, b = rng.sample(names, 2)
        if not free[a] or not free[b] or topo.links_between(a, b):
            continue
        topo.add_link(a, free[a].pop(0), b, free[b].pop(0))
        added += 1
    for name in names:
        for h in range(hosts_per_switch):
            port = num_ports - hosts_per_switch + h + 1
            topo.add_host(f"h_{name}_{h}", name, port)
    return topo


@dataclass(frozen=True)
class IncastSpec:
    """One incast round: senders, the sink, and per-sender volume."""

    sink: str
    senders: Tuple[str, ...]
    bits_per_sender: float
    start_s: float = 0.0

    def program(self) -> FlowProgram:
        """This round as a one-phase :class:`FlowProgram`."""
        tag = ("incast", self.sink, self.start_s)
        flows = tuple(
            FlowSpec(self.start_s, sender, self.sink, self.bits_per_sender, tag=tag)
            for sender in self.senders
        )
        return FlowProgram.open_loop(flows, name="incast-round")


def drive_incast_packets(
    fabric,
    spec: IncastSpec,
    packet_bytes: int = 1450,
    packets_per_sender: int = 20,
    gap_s: float = 0.0,
) -> int:
    """Blast the incast through the packet-level emulator.

    Every sender transmits its burst at once (plus ``gap_s`` pacing);
    returns how many packets the sink delivered.
    """
    now = fabric.loop.now
    fabric.loop.call_batch(sorted(
        ((spec.start_s + i * gap_s, fabric.agents[sender].send_app,
          (spec.sink, ("incast", sender, i), packet_bytes, (sender, spec.sink)))
         for sender in spec.senders
         for i in range(packets_per_sender)),
        key=lambda item: now + item[0],
    ))
    fabric.run_until_idle()
    sink = fabric.agents[spec.sink]
    return sum(
        1
        for _t, _s, payload in sink.delivered
        if isinstance(payload, tuple) and payload and payload[0] == "incast"
    )


def hibench_task(name: str, hosts, seed: int = 0, scale: float = 1.0):
    """One HiBench task DAG drawn from :func:`legacy_task_rng` -- the
    seeded form the Figure 13 table was committed from."""
    return _build_task(name, hosts, legacy_task_rng(seed, name), scale)


def expand(transport, origin, view, frontiers, on_change=None):
    """The frontier engine seeded with dirty ``frontiers`` and drained
    through a blocking transport -- the controller's probe run without
    the event loop.  Returns the engine; ``stats.probes_sent`` is the
    transport's delta over the call and ``unreachable_frontiers`` the
    frontiers still parked at the end."""
    engine = RediscoveryEngine(
        view=view, origin=origin, max_ports=transport.max_ports, on_change=on_change
    )
    for switch, port in frontiers:
        engine.add_frontier(switch, port)
    sent_before = transport.probes_sent
    while True:
        specs = engine.next_round()
        if not specs:
            break
        engine.feed(transport.probe_round(specs))
    engine.stats.probes_sent = transport.probes_sent - sent_before
    engine.unreachable_frontiers = [(s, p) for s, p, _depth in engine._parked]
    return engine


def repair(transport, origin, expected, report):
    """Re-probe exactly what a blueprint verification flagged: start
    from ``expected`` minus the flagged elements and :func:`expand` from
    the four endpoints of every missing link and the expected port of
    every missing host."""
    view = expected.copy()
    frontiers = []
    for sw_a, port_a, sw_b, port_b in report.missing_links:
        if view.has_link(sw_a, port_a, sw_b, port_b):
            view.remove_link(sw_a, port_a, sw_b, port_b)
        frontiers += [(sw_a, port_a), (sw_b, port_b)]
    for host in report.missing_hosts:
        ref = expected.host_port(host)
        view.remove_host(host)
        frontiers.append((ref.switch, ref.port))
    return expand(transport, origin, view, frontiers)
