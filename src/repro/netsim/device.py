"""Devices: the stations attached to channels.

A :class:`Device` owns numbered ports and a single-server processing
queue.  The queue matters: the paper's Figure 8(a) discussion points out
that emulated discovery time is dominated by the *controller host's
packet-processing rate*, so hosts (and switches) here serve one frame at
a time with a configurable per-frame processing delay.  Subclasses
(the DumbNet switch, the host agent, the STP bridge) implement
:meth:`handle_packet` / :meth:`handle_port_state`.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush
from typing import Any, Deque, Dict, Optional, Tuple

from .channel import ChannelEnd
from .events import EventLoop

__all__ = ["Device"]


class Device:
    """A node with ports, a processing queue, and state-change hooks."""

    def __init__(self, name: str, loop: EventLoop, proc_delay: float = 0.0) -> None:
        self.name = name
        self.loop = loop
        self.proc_delay = proc_delay
        self.ports: Dict[int, ChannelEnd] = {}
        self.powered = True
        self._queue: Deque[Tuple[str, int, Any]] = deque()
        self._busy = False
        self.packets_received = 0
        self.packets_sent = 0
        # Pre-bound service callback: one _serve event fires per frame,
        # and binding a method allocates.
        self._serve_cb = self._serve

    @property
    def proc_delay(self) -> float:
        """Seconds of service per frame or port event; finite and >= 0."""
        return self._pd

    @proc_delay.setter
    def proc_delay(self, value: float) -> None:
        # Checked once here, so the per-frame service path needs no check.
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{self.name}: proc_delay must be finite and >= 0, got {value}")
        self._pd = value

    # ------------------------------------------------------------------
    # wiring

    def attach(self, port: int, end: ChannelEnd) -> None:
        if port in self.ports:
            raise ValueError(f"{self.name}: port {port} already wired")
        end.attach(self, port)
        end._fused = self
        self.ports[port] = end

    def port_is_up(self, port: int) -> bool:
        end = self.ports.get(port)
        return bool(end and end.channel.up)

    # ------------------------------------------------------------------
    # dataplane

    def receive(self, port: int, packet: Any) -> None:
        """Called by the channel when a frame arrives.  Queues for service.
        (``Channel._deliver`` has its own copy of the idle branch.)"""
        if not self.powered:
            return
        self.packets_received += 1
        if self._busy or self._queue:
            self._queue.append(("pkt", port, packet))
            return
        # Idle server: start service directly, skipping the queue
        # round-trip.  Same single _serve event as the queued path, so
        # event interleavings are unchanged.
        self._busy = True
        # Inlined EventLoop.call_after -- fires once per frame.
        loop = self.loop
        seq = loop._seq
        loop._seq = seq + 1
        heappush(loop._heap, (loop.now + self._pd, seq, self._serve_cb, ("pkt", port, packet)))
        loop._live += 1

    def port_state_changed(self, port: int, up: bool) -> None:
        """Called by the channel on a physical state change."""
        if not self.powered:
            return
        self._queue.append(("port", port, up))
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        kind, port, item = self._queue.popleft()
        self.loop.call_after(self._pd, self._serve_cb, kind, port, item)

    def _serve(self, kind: str, port: int, item: Any) -> None:
        self._busy = False
        if self.powered:
            if kind == "pkt":
                self.handle_packet(port, item)
            else:
                self.handle_port_state(port, item)
        if self._queue and not self._busy:
            self._pump()

    def send(self, port: int, packet: Any, size_bits: Optional[float] = None) -> bool:
        """Transmit out of ``port``.  Returns False if the port is dead."""
        end = self.ports.get(port)
        if end is None or not self.powered:
            return False
        if size_bits is None:
            try:
                size_bits = 8.0 * packet.size_bytes
            except AttributeError:
                size_bits = 8.0 * 1500
        ok = end.channel.transmit(end, packet, size_bits)
        if ok:
            self.packets_sent += 1
        return ok

    # ------------------------------------------------------------------
    # power (switch-failure injection)

    def power_off(self) -> None:
        """A dead device drops everything; its links go down."""
        self.powered = False
        self._queue.clear()
        for end in self.ports.values():
            end.channel.set_up(False)

    def power_on(self) -> None:
        self.powered = True
        for end in self.ports.values():
            end.channel.set_up(True)

    # ------------------------------------------------------------------
    # subclass interface

    def handle_packet(self, port: int, packet: Any) -> None:
        raise NotImplementedError

    def handle_port_state(self, port: int, up: bool) -> None:
        """Default: ignore physical state changes."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
