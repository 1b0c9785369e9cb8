"""Classic Ethernet: learning switches running Spanning Tree Protocol.

Figure 11(b) compares DumbNet's two-stage failover against "the
off-the-shelf Ethernet Spanning Tree Protocol": after a link cut, STP
must age out the stale root information, re-elect port roles, and walk
the new forwarding port through listening and learning before traffic
flows again -- a multi-round distributed protocol, which is exactly why
it loses to DumbNet's host-local failover by ~5x.

This is a functional 802.1D-style implementation (config BPDUs, root
election, root/designated/blocked roles, forward-delay state machine,
MAC learning with flush on reconvergence).  Timers are constructor
parameters: real STP uses hello=2 s / max-age=20 s / forward-delay=15 s;
the paper's testbed clearly ran proportionally faster timers (its
Figure 11(b) x-axis is milliseconds), so benches scale all three by one
knob while keeping their 2:20:15-ish ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..netsim.device import Device
from ..netsim.events import EventHandle, EventLoop

__all__ = ["Bpdu", "L2Frame", "StpBridge", "L2Host", "STP_DEFAULTS"]

#: (hello, max_age, forward_delay) of classic 802.1D, seconds.
STP_DEFAULTS = (2.0, 20.0, 15.0)

#: Port states.
BLOCKING = "blocking"
LISTENING = "listening"
LEARNING = "learning"
FORWARDING = "forwarding"

#: Port roles.
ROLE_ROOT = "root"
ROLE_DESIGNATED = "designated"
ROLE_BLOCKED = "blocked"


@dataclass(frozen=True)
class Bpdu:
    """A config BPDU: the classic 4-tuple priority vector."""

    root_id: Tuple[int, str]
    root_cost: int
    bridge_id: Tuple[int, str]
    port_id: int
    wire_size: int = 35

    def vector(self) -> Tuple:
        return (self.root_id, self.root_cost, self.bridge_id, self.port_id)


@dataclass
class L2Frame:
    """A plain Ethernet data frame (ethertype 0x0800 equivalent)."""

    src: str
    dst: str
    payload: object = None
    payload_bytes: int = 1000

    @property
    def size_bytes(self) -> int:
        return 14 + self.payload_bytes


class StpBridge(Device):
    """A MAC-learning bridge with spanning tree."""

    def __init__(
        self,
        name: str,
        num_ports: int,
        loop: EventLoop,
        priority: int = 32768,
        hello_s: float = STP_DEFAULTS[0],
        max_age_s: float = STP_DEFAULTS[1],
        forward_delay_s: float = STP_DEFAULTS[2],
        tracer=None,
    ) -> None:
        super().__init__(name, loop, proc_delay=1e-6)
        self.num_ports = num_ports
        self.bridge_id: Tuple[int, str] = (priority, name)
        self.hello_s = hello_s
        self.max_age_s = max_age_s
        self.forward_delay_s = forward_delay_s
        self.tracer = tracer

        self.root_id: Tuple[int, str] = self.bridge_id
        self.root_cost = 0
        self.root_port: Optional[int] = None
        self.port_role: Dict[int, str] = {}
        self.port_state: Dict[int, str] = {}
        self._stored: Dict[int, Tuple[Bpdu, float]] = {}  # port -> (bpdu, when)
        self._transition_timers: Dict[int, EventHandle] = {}
        self.mac_table: Dict[str, int] = {}
        self.frames_forwarded = 0
        self.frames_flooded = 0
        self.reconvergences = 0
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Begin hello timers; call once after wiring."""
        if self._started:
            return
        self._started = True
        for port in self.ports:
            self.port_role[port] = ROLE_DESIGNATED
            self.port_state[port] = LISTENING
            self._schedule_transition(port)
        self._hello()
        self._age_check()

    def _hello(self) -> None:
        if not self.powered:
            return
        self._send_bpdus()
        self.loop.schedule(self.hello_s, self._hello)

    def _age_check(self) -> None:
        if not self.powered:
            return
        now = self.loop.now
        expired = [
            port
            for port, (_bpdu, when) in self._stored.items()
            if now - when > self.max_age_s
        ]
        if expired:
            for port in expired:
                del self._stored[port]
            self._recompute()
        self.loop.schedule(self.hello_s, self._age_check)

    # ------------------------------------------------------------------
    # BPDU handling

    def _send_bpdus(self) -> None:
        for port in self.ports:
            if self.port_role.get(port) != ROLE_DESIGNATED:
                continue
            if not self.port_is_up(port):
                continue
            bpdu = Bpdu(
                root_id=self.root_id,
                root_cost=self.root_cost,
                bridge_id=self.bridge_id,
                port_id=port,
            )
            self.send(port, _BpduFrame(bpdu), size_bits=8.0 * bpdu.wire_size)

    def handle_packet(self, port: int, packet) -> None:
        if isinstance(packet, _BpduFrame):
            self._receive_bpdu(port, packet.bpdu)
        elif isinstance(packet, L2Frame):
            self._forward_frame(port, packet)
        # Tagged DumbNet frames landing on an STP bridge are dropped.

    def _receive_bpdu(self, port: int, bpdu: Bpdu) -> None:
        stored = self._stored.get(port)
        if (
            stored is None
            or bpdu.vector() <= stored[0].vector()
            or stored[0].bridge_id == bpdu.bridge_id
        ):
            # Superior info always wins; and the same designated bridge
            # replacing its own advertisement wins too -- it is
            # authoritative for the segment, even when the news is worse
            # (e.g. it just lost its root port).
            self._stored[port] = (bpdu, self.loop.now)
            self._recompute()

    # ------------------------------------------------------------------
    # role election

    def _recompute(self) -> None:
        old = (self.root_id, self.root_cost, self.root_port, dict(self.port_role))
        # Root selection.
        best_vector = (self.bridge_id, 0, self.bridge_id, 0)
        best_port: Optional[int] = None
        for port, (bpdu, _when) in self._stored.items():
            if not self.port_is_up(port):
                continue
            via = (bpdu.root_id, bpdu.root_cost + 1, bpdu.bridge_id, bpdu.port_id)
            if via < best_vector:
                best_vector = via
                best_port = port
        self.root_id = best_vector[0]
        self.root_cost = best_vector[1]
        self.root_port = best_port

        # Role per port.
        for port in self.ports:
            if port == self.root_port:
                self._set_role(port, ROLE_ROOT)
                continue
            stored = self._stored.get(port)
            mine = (self.root_id, self.root_cost, self.bridge_id, port)
            if stored is None:
                self._set_role(port, ROLE_DESIGNATED)
            else:
                bpdu, _when = stored
                theirs = (bpdu.root_id, bpdu.root_cost, bpdu.bridge_id, bpdu.port_id)
                if mine < theirs:
                    self._set_role(port, ROLE_DESIGNATED)
                else:
                    self._set_role(port, ROLE_BLOCKED)
        new = (self.root_id, self.root_cost, self.root_port, dict(self.port_role))
        if new != old:
            self.reconvergences += 1
            self.mac_table.clear()  # topology-change flush
            if self.tracer is not None:
                self.tracer.record(self.loop.now, "stp-reconverge", self.name, new[:3])
            self._send_bpdus()

    def _set_role(self, port: int, role: str) -> None:
        if self.port_role.get(port) == role:
            return
        self.port_role[port] = role
        timer = self._transition_timers.pop(port, None)
        if timer is not None:
            timer.cancel()
        if role == ROLE_BLOCKED:
            self.port_state[port] = BLOCKING
        else:
            # Root/designated ports walk listening -> learning ->
            # forwarding, forward_delay each (802.1D).
            self.port_state[port] = LISTENING
            self._schedule_transition(port)

    def _schedule_transition(self, port: int) -> None:
        self._transition_timers[port] = self.loop.schedule(
            self.forward_delay_s, self._advance_state, port
        )

    def _advance_state(self, port: int) -> None:
        state = self.port_state.get(port)
        if state == LISTENING:
            self.port_state[port] = LEARNING
            self._schedule_transition(port)
        elif state == LEARNING:
            self.port_state[port] = FORWARDING
            if self.tracer is not None:
                self.tracer.record(
                    self.loop.now, "stp-port-forwarding", self.name, port
                )

    # ------------------------------------------------------------------
    # data plane

    def _forward_frame(self, in_port: int, frame: L2Frame) -> None:
        state = self.port_state.get(in_port)
        if state in (LEARNING, FORWARDING):
            self.mac_table[frame.src] = in_port
        if state != FORWARDING:
            return
        out = self.mac_table.get(frame.dst)
        if out is not None and out != in_port and self.port_state.get(out) == FORWARDING:
            self.send(out, frame)
            self.frames_forwarded += 1
            return
        self.frames_flooded += 1
        for port in self.ports:
            if port == in_port or self.port_state.get(port) != FORWARDING:
                continue
            self.send(port, frame)

    # ------------------------------------------------------------------
    # physical events

    def handle_port_state(self, port: int, up: bool) -> None:
        if not up:
            self._stored.pop(port, None)
            self._recompute()
        # Port-up: roles refresh at the next hello/BPDU exchange.


@dataclass
class _BpduFrame:
    bpdu: Bpdu

    @property
    def size_bytes(self) -> int:
        return self.bpdu.wire_size


class L2Host(Device):
    """A plain Ethernet host: sends L2 frames, records deliveries."""

    def __init__(self, name: str, loop: EventLoop) -> None:
        super().__init__(name, loop, proc_delay=1e-6)
        self.delivered: List[Tuple[float, str, object]] = []
        self.bytes_received = 0

    def send_frame(self, dst: str, payload: object = None, payload_bytes: int = 1000) -> None:
        self.send(1, L2Frame(src=self.name, dst=dst, payload=payload, payload_bytes=payload_bytes))

    def handle_packet(self, port: int, packet) -> None:
        if isinstance(packet, L2Frame) and packet.dst == self.name:
            self.delivered.append((self.loop.now, packet.src, packet.payload))
            self.bytes_received += packet.size_bytes
