"""A pHost-style receiver-driven transport on DumbNet (Section 3.1).

"We can easily support existing source-routing based optimizations such
as pHost [10] on to DumbNet too."  pHost (Gao et al., CoNEXT 2015) is a
receiver-driven datacenter transport: a sender announces a message with
a request-to-send, and the *receiver* paces tokens at its own downlink
rate; each token authorizes exactly one data packet.  Incast melts away
because the bottleneck (the receiver's port) is never oversubscribed.

DumbNet makes the per-packet half of pHost trivial: every data packet
may take a different cached path (the sender sprays tokens' packets
round-robin over its k paths), with no switch state to update.

Protocol messages ride as ordinary application payloads:

* ``("phost-rts", msg_id, num_packets)``       sender -> receiver
* ``("phost-token", msg_id, seq)``             receiver -> sender
* ``("phost-data", msg_id, seq, last)``        sender -> receiver
* ``("phost-done", msg_id)``                   receiver -> sender
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .host_agent import HostAgent
from .packet import DUMBNET_MTU

__all__ = ["PHostEndpoint", "TransferStats"]


@dataclass
class _InboundMessage:
    """Receiver-side bookkeeping for one announced message."""

    src: str
    msg_id: int
    total: int
    granted: int = 0
    received: int = 0

    @property
    def remaining_grants(self) -> int:
        return self.total - self.granted


@dataclass
class _OutboundMessage:
    """Sender-side bookkeeping."""

    dst: str
    msg_id: int
    total: int
    packet_bytes: int
    sent: int = 0
    started_at: float = 0.0
    finished_at: Optional[float] = None
    on_complete: Optional[Callable[["TransferStats"], None]] = None


@dataclass(frozen=True)
class TransferStats:
    """Outcome of one completed transfer."""

    dst: str
    msg_id: int
    packets: int
    duration_s: float

    @property
    def goodput_bps(self) -> float:
        return 0.0 if self.duration_s <= 0 else (
            self.packets * 8 * DUMBNET_MTU / self.duration_s
        )


class PHostEndpoint:
    """Both halves of the pHost protocol, bound to one host agent."""

    def __init__(
        self,
        agent: HostAgent,
        downlink_bps: float = 10e9,
        packet_bytes: int = DUMBNET_MTU,
        spray_paths: int = 4,
    ) -> None:
        self.agent = agent
        self.packet_bytes = packet_bytes
        self.spray_paths = spray_paths
        #: Token pacing interval: one packet time at the downlink rate.
        self.token_interval_s = packet_bytes * 8 / downlink_bps

        self._next_msg_id = 1
        self._outbound: Dict[int, _OutboundMessage] = {}
        self._inbound: Dict[Tuple[str, int], _InboundMessage] = {}
        #: Shortest-remaining-first grant queue of (src, msg_id) keys.
        self._grant_queue: List[Tuple[str, int]] = []
        self._pacer_running = False
        self.completed: List[TransferStats] = []

        self._previous_receive = agent.app_receive
        agent.app_receive = self._receive

    # ------------------------------------------------------------------
    # sender side

    def transfer(
        self,
        dst: str,
        num_packets: int,
        on_complete: Optional[Callable[[TransferStats], None]] = None,
    ) -> int:
        """Announce a message; data flows as the receiver grants tokens."""
        if num_packets < 1:
            raise ValueError("a transfer needs at least one packet")
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        self._outbound[msg_id] = _OutboundMessage(
            dst=dst,
            msg_id=msg_id,
            total=num_packets,
            packet_bytes=self.packet_bytes,
            started_at=self.agent.loop.now,
            on_complete=on_complete,
        )
        self.agent.send_app(dst, ("phost-rts", msg_id, num_packets),
                            payload_bytes=32, flow_key=("phost", dst, msg_id))
        return msg_id

    def _on_token(self, src: str, msg_id: int, seq: int) -> None:
        message = self._outbound.get(msg_id)
        if message is None:
            return
        message.sent += 1
        last = message.sent >= message.total
        # Per-packet path spraying: bind each data packet's flow key to
        # the token sequence so the PathTable rotates across its k paths.
        self.agent.send_app(
            message.dst,
            ("phost-data", msg_id, seq, last),
            payload_bytes=message.packet_bytes,
            flow_key=("phost", message.dst, msg_id, seq % self.spray_paths),
        )

    def _on_done(self, src: str, msg_id: int) -> None:
        message = self._outbound.pop(msg_id, None)
        if message is None:
            return
        message.finished_at = self.agent.loop.now
        stats = TransferStats(
            dst=message.dst,
            msg_id=msg_id,
            packets=message.total,
            duration_s=message.finished_at - message.started_at,
        )
        self.completed.append(stats)
        if message.on_complete is not None:
            message.on_complete(stats)

    # ------------------------------------------------------------------
    # receiver side

    def _on_rts(self, src: str, msg_id: int, num_packets: int) -> None:
        key = (src, msg_id)
        if key in self._inbound:
            return  # duplicate RTS
        self._inbound[key] = _InboundMessage(
            src=src, msg_id=msg_id, total=num_packets
        )
        self._grant_queue.append(key)
        # Shortest remaining message first: pHost's default policy.
        self._grant_queue.sort(
            key=lambda k: self._inbound[k].remaining_grants
        )
        if not self._pacer_running:
            self._pacer_running = True
            self.agent.loop.schedule(0.0, self._pace)

    def _pace(self) -> None:
        """Issue one token per packet time at the downlink rate."""
        while self._grant_queue:
            key = self._grant_queue[0]
            message = self._inbound.get(key)
            if message is None or message.remaining_grants <= 0:
                self._grant_queue.pop(0)
                continue
            message.granted += 1
            self.agent.send_app(
                message.src,
                ("phost-token", message.msg_id, message.granted - 1),
                payload_bytes=16,
                flow_key=("phost-ctl", message.src),
            )
            if message.remaining_grants <= 0:
                self._grant_queue.pop(0)
            self.agent.loop.schedule(self.token_interval_s, self._pace)
            return
        self._pacer_running = False

    def _on_data(self, src: str, msg_id: int, seq: int, last: bool) -> None:
        key = (src, msg_id)
        message = self._inbound.get(key)
        if message is None:
            return
        message.received += 1
        if message.received >= message.total:
            del self._inbound[key]
            self.agent.send_app(
                src, ("phost-done", msg_id), payload_bytes=16,
                flow_key=("phost-ctl", src),
            )

    # ------------------------------------------------------------------
    # dispatch

    def _receive(self, src: str, payload, now: float) -> None:
        if isinstance(payload, tuple) and payload:
            kind = payload[0]
            if kind == "phost-rts":
                self._on_rts(src, payload[1], payload[2])
                return
            if kind == "phost-token":
                self._on_token(src, payload[1], payload[2])
                return
            if kind == "phost-data":
                self._on_data(src, payload[1], payload[2], payload[3])
                return
            if kind == "phost-done":
                self._on_done(src, payload[1])
                return
        self._previous_receive(src, payload, now)
