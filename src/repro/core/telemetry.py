"""Packet statistics on dumb switches (Section 8 future work).

"We are adding mechanisms for packet statistics and ECN support to the
switch.  Note that these mechanisms either require no state, or only
soft state, keeping the switches dumb."

Design: counters are soft state the switch already has (it increments
them anyway for its own health LEDs); the *query* mechanism reuses the
tag-0 ID query -- a :class:`StatsSwitch` answers it with a
:class:`SwitchStatsReply`, which is a :class:`SwitchIDReply` carrying a
counters snapshot.  Discovery keeps working unmodified (the subclass
satisfies the same contract), and a host-side
:class:`TelemetryCollector` polls the whole fabric with ordinary
tag-routed probes: no switch configuration, no polling agents on boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..netsim.network import Network
from ..obs.report import ReportBase
from .controller import Controller
from .discovery import ProbeSpec, route_tags
from .messages import SwitchIDReply
from .packet import ID_QUERY
from .switch import DumbSwitch

__all__ = ["SwitchStatsReply", "StatsSwitch", "TelemetryCollector", "FabricReport"]


@dataclass(frozen=True)
class SwitchStatsReply(SwitchIDReply):
    """An ID reply that also carries the switch's counter snapshot."""

    counters: Tuple[Tuple[str, int], ...] = ()

    def counter(self, name: str) -> int:
        for key, value in self.counters:
            if key == name:
                return value
        return 0


class StatsSwitch(DumbSwitch):
    """A dumb switch whose ID replies include packet statistics.

    Adds per-port transmit counters (soft state) on top of the base
    class's aggregate counters; everything rides the existing ID-query
    dataplane behaviour.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tx_frames: Dict[int, int] = {}

    def send(self, port: int, packet, size_bits: Optional[float] = None) -> bool:
        ok = super().send(port, packet, size_bits=size_bits)
        if ok:
            self.tx_frames[port] = self.tx_frames.get(port, 0) + 1
        return ok

    def _snapshot(self) -> Tuple[Tuple[str, int], ...]:
        rows: List[Tuple[str, int]] = [
            ("forwarded", self.forwarded),
            ("dropped_bad_tag", self.dropped_bad_tag),
            ("dropped_dead_port", self.dropped_dead_port),
            ("id_queries", self.id_queries_answered),
            ("notifications", self.notifications_originated),
        ]
        for port in sorted(self.tx_frames):
            rows.append((f"tx_port_{port}", self.tx_frames[port]))
        return tuple(rows)

    def handle_packet(self, port: int, packet) -> None:
        # Intercept the ID query to substitute the stats-bearing reply;
        # everything else is the plain dataplane.
        if (
            packet is not None
            and getattr(packet, "tags", None) is not None
            and not packet.tags.at_end
            and packet.tags.peek() == ID_QUERY
        ):
            packet.tags.pop()
            packet.payload = SwitchStatsReply(
                switch_id=self.name,
                echo=packet.payload,
                counters=self._snapshot(),
            )
            packet.payload_bytes = max(packet.payload_bytes, 64)
            self.id_queries_answered += 1
            if packet.tags.at_end:
                self.dropped_bad_tag += 1
                return
            tag = packet.tags.pop()
            if tag == ID_QUERY or tag > self.num_ports:
                self.dropped_bad_tag += 1
                return
            if not self.send(tag, packet):
                self.dropped_dead_port += 1
                return
            self.forwarded += 1
            return
        super().handle_packet(port, packet)


@dataclass
class FabricReport(ReportBase):
    """Fabric-wide counter snapshot, one row per switch."""

    rows: Dict[str, Tuple[Tuple[str, int], ...]] = field(default_factory=dict)
    unreachable: List[str] = field(default_factory=list)
    #: The controller's path-service counters (cache hits/misses/
    #: evictions, SSSP tree reuse) at collection time.
    path_service: Dict[str, int] = field(default_factory=dict)
    #: Per-replica quorum-apply outcomes (applied / reconciled /
    #: dropped) from the controller's replicated topology store;
    #: ``dropped`` > 0 flags replica-view divergence.
    replication: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "fabric-report",
            "switches": {
                switch: dict(counters)
                for switch, counters in sorted(self.rows.items())
            },
            "unreachable": sorted(self.unreachable),
            "path_service": dict(self.path_service),
            "replication": {
                replica: dict(stats)
                for replica, stats in sorted(self.replication.items())
            },
        }

    def summary(self) -> str:
        lines = [
            f"switches polled:    {len(self.rows)}",
            f"unreachable:        {len(self.unreachable)}"
            + (f" ({', '.join(sorted(self.unreachable))})"
               if self.unreachable else ""),
            f"frames forwarded:   {self.total('forwarded')}",
            f"frames dropped:     "
            f"{self.total('dropped_bad_tag') + self.total('dropped_dead_port')}",
        ]
        if self.path_service:
            ps = self.path_service
            lines.append(
                "path service:       "
                f"{ps.get('hits', 0)} hits / {ps.get('misses', 0)} misses"
            )
        if self.replication:
            applied = sum(s.get("applied", 0) for s in self.replication.values())
            reconciled = sum(
                s.get("reconciled", 0) for s in self.replication.values()
            )
            dropped = sum(s.get("dropped", 0) for s in self.replication.values())
            line = (
                f"replication:        {applied} applied / "
                f"{reconciled} reconciled across "
                f"{len(self.replication)} replicas"
            )
            if dropped:
                line += f" -- {dropped} DROPPED (replica divergence)"
            lines.append(line)
        hottest = self.hottest_ports(3)
        if hottest:
            hot = ", ".join(f"{sw}:{port}={tx}" for sw, port, tx in hottest)
            lines.append(f"hottest ports:      {hot}")
        return "\n".join(lines)

    def total(self, counter: str) -> int:
        out = 0
        for counters in self.rows.values():
            for key, value in counters:
                if key == counter:
                    out += value
        return out

    def hottest_ports(self, top: int = 5) -> List[Tuple[str, int, int]]:
        """(switch, port, tx frames), busiest first."""
        entries: List[Tuple[str, int, int]] = []
        for switch, counters in self.rows.items():
            for key, value in counters:
                if key.startswith("tx_port_"):
                    entries.append((switch, int(key.rsplit("_", 1)[1]), value))
        entries.sort(key=lambda e: e[2], reverse=True)
        return entries[:top]


class TelemetryCollector:
    """Polls every switch's counters through the live dataplane.

    Runs from outside the event loop (like discovery bootstrap): it
    sends one stats query per switch, drains the network, and collects
    the replies.  Requires the controller's view for routing.
    """

    #: How long (simulated seconds) replies get to come back.  A stats
    #: probe round-trips in well under a millisecond on any modeled
    #: fabric; 50 ms covers deep topologies with room to spare.
    DEFAULT_SETTLE_S = 0.05

    def __init__(
        self,
        controller: Controller,
        network: Network,
        settle_s: Optional[float] = DEFAULT_SETTLE_S,
    ) -> None:
        if controller.view is None:
            raise RuntimeError("telemetry needs a bootstrapped controller")
        self.controller = controller
        self.network = network
        self.settle_s = settle_s

    def collect(self) -> FabricReport:
        view = self.controller.view
        assert view is not None
        report = FabricReport(
            path_service=self.controller.path_service.stats.as_dict()
        )
        replicator = getattr(self.controller, "replicator", None)
        apply_stats = getattr(replicator, "apply_stats", None)
        if apply_stats:
            report.replication = {
                replica: dict(stats) for replica, stats in apply_stats.items()
            }
        pending: Dict[int, str] = {}
        for switch in view.switches:
            try:
                to_tags, from_tags = route_tags(
                    view, self.controller.name, switch
                )
            except Exception:
                report.unreachable.append(switch)
                continue
            try:
                nonce = self.controller.send_probe(
                    ProbeSpec(tags=to_tags + (ID_QUERY,) + from_tags)
                )
            except Exception:
                # The view routed us, but the probe could not leave
                # (e.g. the controller's own NIC is down mid-chaos).
                report.unreachable.append(switch)
                continue
            pending[nonce] = switch
        if self.settle_s is None:
            self.network.run_until_idle()
        else:
            # Bounded settle window, NOT run_until_idle: a fabric with a
            # down switch -- or any live workload/chaos timeline -- may
            # hold self-rescheduling timers that never go idle (or only
            # after fast-forwarding the whole experiment).  Collecting
            # telemetry must not consume the rest of the simulation.
            self.network.run(until=self.network.now + self.settle_s)
        for nonce, switch in pending.items():
            outcome = self.controller.collect_probe(nonce)
            if outcome is None or outcome.kind != "id":
                report.unreachable.append(switch)
                continue
            stats = outcome.stats or ()
            report.rows[switch] = tuple(stats)
        return report
