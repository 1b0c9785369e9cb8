"""Point-to-point channels: the cables of the emulated fabric.

A :class:`Channel` joins two (device, port) endpoints.  Each direction
is an independent FIFO: a frame experiences serialization delay
(size / bandwidth), propagation latency, optional jitter, and queues
behind earlier frames in the same direction.  Jittered arrivals are
clamped to the direction's previous arrival time, so delivery order
always equals send order.  Channels also model the physical-layer port
state (Section 4.2): taking a channel down delivers a port-down event
to both endpoint devices after a detection delay, exactly the signal
DumbNet switches turn into failure notifications.

The transmit path is split in two: a zero-perturbation fast path (no
loss, no jitter, no duplication, no extra delay -- the overwhelmingly
common case in discovery and throughput sweeps) that touches no rng and
takes no fault branches, and a slow path for perturbed channels.  The
``_fast`` flag is maintained by property setters on the four fault
knobs, so fault injectors can keep mutating them directly.  The one
per-channel instrument, an obs queue-wait histogram wired by the
:class:`~repro.netsim.network.Network`, costs one ``is not None`` check
per frame when absent.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import Any, Callable, Optional, TYPE_CHECKING

from .events import EventLoop

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .device import Device

__all__ = ["Channel", "ChannelEnd"]

#: Physical port-state detection delay, seconds.  Real PHYs signal loss
#: of light within tens to hundreds of microseconds.
DEFAULT_DETECTION_DELAY = 100e-6


class ChannelEnd:
    """One plug of a channel: knows its device, port, and twin."""

    __slots__ = ("channel", "index", "device", "port", "busy_until",
                 "last_arrival", "peer", "_recv_cb", "_fused")

    def __init__(self, channel: "Channel", index: int) -> None:
        self.channel = channel
        self.index = index
        self.device: Optional["Device"] = None
        self.port: int = -1
        # Per-direction transmit queue state: when the line frees up,
        # and the latest arrival already booked (the FIFO clamp).
        self.busy_until: float = 0.0
        self.last_arrival: float = 0.0
        # The twin end; assigned by Channel.__init__ once both exist.
        self.peer: "ChannelEnd" = None  # type: ignore[assignment]
        # Pre-bound device.receive, cached at attach time (binding a
        # method per delivered frame allocates).
        self._recv_cb: Optional[Callable[[int, Any], None]] = None
        # Set by Device.attach: Channel._deliver serves an idle Device inline.
        self._fused: Optional["Device"] = None

    def attach(self, device: "Device", port: int) -> None:
        if self.device is not None:
            raise ValueError(f"channel end already attached to {self.device}")
        self.device = device
        self.port = port
        self._recv_cb = device.receive

    def transmit(self, packet: Any, size_bits: float) -> bool:
        """Send a frame toward the peer end.  Returns False if line down."""
        return self.channel.transmit(self, packet, size_bits)


class Channel:
    """A bidirectional cable with bandwidth, latency and up/down state."""

    def __init__(
        self,
        loop: EventLoop,
        bandwidth_bps: Optional[float] = None,
        latency_s: float = 1e-6,
        jitter_s: float = 0.0,
        rng: Optional[random.Random] = None,
        detection_delay_s: float = DEFAULT_DETECTION_DELAY,
        loss_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        if loss_rate > 0 and rng is None:
            raise ValueError("a lossy channel needs an rng")
        self.loop = loop
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.rng = rng
        self.detection_delay_s = detection_delay_s
        # Fault knobs (mutable at runtime, e.g. by a ChaosRunner):
        # probabilistic loss/duplication and a flat extra propagation
        # delay.  All go through properties so the fast-path flag stays
        # coherent; loss and duplication need ``rng`` to act.
        self._jitter_s = jitter_s
        self._loss_rate = loss_rate
        self._duplicate_rate = 0.0
        self._extra_latency_s = 0.0
        self._fast = True
        self._refresh_fast()
        self.up = True
        self._downs = 0  # line-down transitions so far
        self.ends = (ChannelEnd(self, 0), ChannelEnd(self, 1))
        self.ends[0].peer = self.ends[1]
        self.ends[1].peer = self.ends[0]
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_duplicated = 0
        # Obs-layer queueing-delay histogram (anything with observe()),
        # set by Network when a hub is attached: one check per frame.
        self._obs_wait: Optional[Any] = None
        # Pre-bound delivery callback: binding a method allocates, and
        # the transmit fast path schedules one delivery per frame.
        self._deliver_cb = self._deliver

    # ------------------------------------------------------------------
    # fault knobs: property setters keep the fast-path flag coherent

    def _refresh_fast(self) -> None:
        self._fast = (
            self._loss_rate == 0.0
            and self._duplicate_rate == 0.0
            and self._extra_latency_s == 0.0
            and (self._jitter_s == 0.0 or self.rng is None)
        )

    @property
    def jitter_s(self) -> float:
        return self._jitter_s

    @jitter_s.setter
    def jitter_s(self, value: float) -> None:
        self._jitter_s = value
        self._refresh_fast()

    @property
    def loss_rate(self) -> float:
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, value: float) -> None:
        self._loss_rate = value
        self._refresh_fast()

    @property
    def duplicate_rate(self) -> float:
        return self._duplicate_rate

    @duplicate_rate.setter
    def duplicate_rate(self, value: float) -> None:
        self._duplicate_rate = value
        self._refresh_fast()

    @property
    def extra_latency_s(self) -> float:
        return self._extra_latency_s

    @extra_latency_s.setter
    def extra_latency_s(self, value: float) -> None:
        self._extra_latency_s = value
        self._refresh_fast()

    # ------------------------------------------------------------------

    def transmit(self, sender: ChannelEnd, packet: Any, size_bits: float) -> bool:
        if not self.up:
            self.frames_dropped += 1
            return False
        receiver = sender.peer
        if receiver.device is None:
            self.frames_dropped += 1
            return False
        loop = self.loop
        start = sender.busy_until
        now = loop.now
        if start < now:
            start = now
        if self._fast:
            bandwidth = self.bandwidth_bps
            free = start + size_bits / bandwidth if bandwidth else start
            sender.busy_until = free
            arrival = free + self.latency_s
            if arrival < sender.last_arrival:
                arrival = sender.last_arrival
            else:
                sender.last_arrival = arrival
            obs = self._obs_wait
            if obs is not None:
                obs.observe(start - now)
            # Inlined EventLoop.call_at -- this push is the single
            # hottest line of the emulator.
            seq = loop._seq
            loop._seq = seq + 1
            heappush(loop._heap, (arrival, seq, self._deliver_cb, (receiver, packet, self._downs)))
            loop._live += 1
            return True
        return self._transmit_slow(sender, receiver, packet, size_bits, start, now)

    def _transmit_slow(
        self,
        sender: ChannelEnd,
        receiver: ChannelEnd,
        packet: Any,
        size_bits: float,
        start: float,
        now: float,
    ) -> bool:
        rng = self.rng
        if self._loss_rate > 0 and rng is not None:
            if rng.random() < self._loss_rate:
                # Corrupted on the wire: the sender still paid the
                # serialization time but nothing arrives.
                self.frames_dropped += 1
                if self.bandwidth_bps:
                    sender.busy_until = start + size_bits / self.bandwidth_bps
                return True
        tx_time = 0.0
        if self.bandwidth_bps:
            tx_time = size_bits / self.bandwidth_bps
        sender.busy_until = start + tx_time
        latency = self.latency_s + self._extra_latency_s
        if self._jitter_s and rng is not None:
            latency += rng.uniform(0.0, self._jitter_s)
        arrival = sender.busy_until + latency
        # FIFO clamp: a frame with a small jitter draw (or sent right
        # after a delay burst ends) may not overtake an earlier frame
        # in the same direction.
        if arrival < sender.last_arrival:
            arrival = sender.last_arrival
        else:
            sender.last_arrival = arrival
        obs = self._obs_wait
        if obs is not None:
            obs.observe(start - now)
        self.loop.call_at(arrival, self._deliver_cb, receiver, packet, self._downs)
        if self._duplicate_rate > 0 and rng is not None:
            if rng.random() < self._duplicate_rate:
                # A duplicated frame arrives one serialization slot
                # behind the original (as if retransmitted on the PHY).
                self.frames_duplicated += 1
                dup = packet.fork() if hasattr(packet, "fork") else packet
                self.loop.call_at(
                    arrival + max(tx_time, 1e-9), self._deliver_cb, receiver, dup, self._downs
                )
        return True

    def _deliver(self, receiver: ChannelEnd, packet: Any, downs: int) -> None:
        if downs != self._downs:  # the line went down while it was on the wire
            self.frames_dropped += 1
            return
        self.frames_delivered += 1
        device = receiver._fused
        if device is None or device._busy or device._queue or not device.powered:
            receiver._recv_cb(receiver.port, packet)
            return
        # Device.receive's idle-server branch, fused into the delivery:
        # the same single _serve event, so interleavings are unchanged.
        device.packets_received += 1
        device._busy = True
        loop = self.loop
        seq = loop._seq
        loop._seq = seq + 1
        heappush(loop._heap, (loop.now + device._pd, seq, device._serve_cb, ("pkt", receiver.port, packet)))
        loop._live += 1

    # ------------------------------------------------------------------
    # physical state (failure injection)

    def set_up(self, up: bool) -> None:
        """Change the line state and notify both endpoint devices.

        Notification is delayed by the PHY detection time; frames already
        in flight when the line goes down are dropped at delivery, even
        if it is back up by then.  Going down also resets both
        directions' queue state (busy_until and the FIFO clamp): frames
        that were serializing are gone, so traffic sent after a restore
        must not queue behind ghosts of dropped frames.
        """
        if up == self.up:
            return
        self.up = up
        if not up:
            self._downs += 1
            for end in self.ends:
                end.busy_until = 0.0
                end.last_arrival = 0.0
        for end in self.ends:
            if end.device is not None:
                self.loop.schedule(
                    self.detection_delay_s, end.device.port_state_changed, end.port, up
                )

    def fail(self) -> None:
        self.set_up(False)

    def restore(self) -> None:
        self.set_up(True)
