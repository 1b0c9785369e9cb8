"""Incast workload: many senders converge on one receiver.

The classic data-center pathology (partition/aggregate applications):
N workers answer one aggregator at once, and the receiver's last-hop
port becomes the bottleneck.  Used to exercise ECN marking and the
congestion-aware rerouting extension, and as a stress pattern for the
fluid simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..core.fabric import DumbNetFabric
from .api import FlowProgram, FlowSpec

__all__ = ["IncastSpec", "incast_flows", "drive_incast_packets"]


@dataclass(frozen=True)
class IncastSpec:
    """One incast round: senders, the sink, and per-sender volume.

    Single rounds predate the unified suite; new code sweeps fan-ins
    via :class:`repro.workloads.IncastSweep`.  :meth:`program` bridges
    a spec into the unified runner with the exact legacy flow order and
    tag.
    """

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


def incast_flows(
    hosts: Sequence[str],
    fanin: int,
    bits_per_sender: float,
    rng: random.Random,
    start_s: float = 0.0,
) -> IncastSpec:
    """Pick a sink and ``fanin`` senders from the list (one round;
    :class:`repro.workloads.IncastSweep` sweeps fan-ins)."""
    if len(hosts) < fanin + 1:
        raise ValueError(f"need {fanin + 1} hosts, got {len(hosts)}")
    chosen = rng.sample(list(hosts), fanin + 1)
    return IncastSpec(
        sink=chosen[0],
        senders=tuple(chosen[1:]),
        bits_per_sender=bits_per_sender,
        start_s=start_s,
    )


def drive_incast_packets(
    fabric: DumbNetFabric,
    spec: IncastSpec,
    packet_bytes: int = 1450,
    packets_per_sender: int = 20,
    gap_s: float = 0.0,
) -> int:
    """Blast the incast through the packet-level emulator.

    Every sender transmits its burst simultaneously (plus ``gap_s``
    pacing); returns how many packets the sink delivered.  Useful with
    :class:`~repro.core.ecn.EcnSwitch` fabrics: the sink's last-hop
    backlog marks packets, observable via ``switch.packets_marked``.
    """
    fabric.loop.call_batch(
        (spec.start_s + i * gap_s, fabric.agents[sender].send_app,
         (spec.sink, ("incast", sender, i), packet_bytes, (sender, spec.sink)))
        for sender in spec.senders
        for i in range(packets_per_sender)
    )
    fabric.run_until_idle()
    sink = fabric.agents[spec.sink]
    return sum(
        1
        for _t, _s, payload in sink.delivered
        if isinstance(payload, tuple) and payload and payload[0] == "incast"
    )
