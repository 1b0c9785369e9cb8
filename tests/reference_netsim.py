"""The seed native event loop, cable and device, kept as an oracle.

``EventHandle`` / ``EventLoop`` / ``ChannelEnd`` / ``Channel`` /
``Device`` are ``repro.netsim`` as it was before timer batches and the
fused delivery step (commit 30d9219), with the inlined heap pushes and
the two copies of the run loop written out plainly: every timer is its
own heap entry, a delivery calls ``receive`` which schedules ``_serve``,
a dead port is a caught ``KeyError``.  Left out because the
differential never reaches them: ``next_event_time``, the
``PerfCounters`` / obs hooks and callable ``proc_delay``.  One behaviour is deliberately *not* the
seed's: a frame on the wire when its line goes down is dropped even if
the line is back up at arrival (the seed delivered it, after frames sent
behind it).  The reference gets there its own way -- each frame carries
a liveness token that a line-down kills -- rather than the production
down counter, so ``test_netsim_differential.py`` checks one against the
other.  It shares no code with ``repro.netsim``.  Nothing under
``src/`` may import this module.
"""

import gc
import random
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Deque, Dict, List, Optional, Tuple

COMPACT_MIN_DEAD = 64
DEFAULT_DETECTION_DELAY = 100e-6


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly."""


class EventHandle:
    __slots__ = ("time", "seq", "callback", "args", "_loop")

    def __init__(self, time, seq, callback, args, loop) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._loop = loop

    def cancel(self) -> None:
        if self.callback is None:
            return
        self.callback = None
        self.args = ()
        loop = self._loop
        loop._live -= 1
        loop._dead += 1
        if loop._dead >= COMPACT_MIN_DEAD and loop._dead * 2 > len(loop._heap):
            loop._compact()


class EventLoop:
    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Any, Optional[Tuple[Any, ...]]]] = []
        self._seq = 0
        self._events_run = 0
        self._live = 0
        self._dead = 0

    def schedule(self, delay, callback, *args) -> EventHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(self.now + delay, seq, callback, args, self)
        heappush(self._heap, (handle.time, seq, handle, None))
        self._live += 1
        return handle

    def schedule_at(self, time, callback, *args) -> EventHandle:
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past (time={time})")
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        heappush(self._heap, (time, seq, handle, None))
        self._live += 1
        return handle

    def call_after(self, delay, callback, *args) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, callback, args))
        self._live += 1

    def call_at(self, time, callback, *args) -> None:
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past (time={time})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, callback, args))
        self._live += 1

    @property
    def pending(self) -> int:
        return self._live

    @property
    def events_run(self) -> int:
        return self._events_run

    def _compact(self) -> None:
        heap = self._heap
        heap[:] = [e for e in heap if e[3] is not None or e[2].callback is not None]
        heapify(heap)
        self._dead = 0

    def run(self, until=None, max_events=None) -> int:
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(self._heap, until, max_events)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, heap, until, max_events):
        executed = 0
        limit = float("inf") if max_events is None else max_events
        try:
            while heap and executed < limit:
                time = heap[0][0]
                if until is not None and time > until:
                    self.now = until
                    return executed
                _time, _seq, x, args = heappop(heap)
                if args is None:
                    callback = x.callback
                    if callback is None:
                        self._dead -= 1
                        continue
                    args = x.args
                    x.callback = None
                    x.args = ()
                else:
                    callback = x
                self.now = time
                executed += 1
                callback(*args)
        finally:
            self._live -= executed
            self._events_run += executed
        if until is not None and not heap and until > self.now:
            self.now = until
        return executed

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        executed = self.run(max_events=max_events)
        if self._live:
            raise SimulationError(f"{self._live} live events still pending")
        return executed


class ChannelEnd:
    __slots__ = ("channel", "index", "device", "port", "busy_until",
                 "last_arrival", "peer", "_recv_cb")

    def __init__(self, channel: "Channel", index: int) -> None:
        self.channel = channel
        self.index = index
        self.device = None
        self.port: int = -1
        self.busy_until: float = 0.0
        self.last_arrival: float = 0.0
        self.peer: "ChannelEnd" = None  # type: ignore[assignment]
        self._recv_cb = None

    def attach(self, device, port: int) -> None:
        if self.device is not None:
            raise ValueError(f"channel end already attached to {self.device}")
        self.device = device
        self.port = port
        self._recv_cb = device.receive


class Channel:
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
        self.loop = loop
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.rng = rng
        self.detection_delay_s = detection_delay_s
        self.jitter_s = jitter_s
        self.loss_rate = loss_rate
        self.duplicate_rate = 0.0
        self.extra_latency_s = 0.0
        self.up = True
        #: Liveness tokens of the frames on the wire; line-down kills them.
        self._wire: List[List[bool]] = []
        self.ends = (ChannelEnd(self, 0), ChannelEnd(self, 1))
        self.ends[0].peer = self.ends[1]
        self.ends[1].peer = self.ends[0]
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self._deliver_cb = self._deliver

    @property
    def _fast(self) -> bool:
        return (
            self.loss_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.extra_latency_s == 0.0
            and (self.jitter_s == 0.0 or self.rng is None)
        )

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
        token = [True]
        self._wire.append(token)
        if self._fast:
            bandwidth = self.bandwidth_bps
            free = start + size_bits / bandwidth if bandwidth else start
            sender.busy_until = free
            arrival = free + self.latency_s
            if arrival < sender.last_arrival:
                arrival = sender.last_arrival
            else:
                sender.last_arrival = arrival
            loop.call_at(arrival, self._deliver_cb, receiver, packet, token)
            return True
        return self._transmit_slow(sender, receiver, packet, size_bits, start, token)

    def _transmit_slow(self, sender, receiver, packet, size_bits, start, token) -> bool:
        rng = self.rng
        if self.loss_rate > 0 and rng is not None:
            if rng.random() < self.loss_rate:
                self.frames_dropped += 1
                if self.bandwidth_bps:
                    sender.busy_until = start + size_bits / self.bandwidth_bps
                return True
        tx_time = 0.0
        if self.bandwidth_bps:
            tx_time = size_bits / self.bandwidth_bps
        sender.busy_until = start + tx_time
        latency = self.latency_s + self.extra_latency_s
        if self.jitter_s and rng is not None:
            latency += rng.uniform(0.0, self.jitter_s)
        arrival = sender.busy_until + latency
        if arrival < sender.last_arrival:
            arrival = sender.last_arrival
        else:
            sender.last_arrival = arrival
        self.loop.call_at(arrival, self._deliver_cb, receiver, packet, token)
        if self.duplicate_rate > 0 and rng is not None:
            if rng.random() < self.duplicate_rate:
                self.frames_duplicated += 1
                dup = packet.fork() if hasattr(packet, "fork") else packet
                self.loop.call_at(
                    arrival + max(tx_time, 1e-9), self._deliver_cb, receiver, dup, token
                )
        return True

    def _deliver(self, receiver: ChannelEnd, packet: Any, token: List[bool]) -> None:
        if not self.up or not token[0]:
            self.frames_dropped += 1
            return
        self.frames_delivered += 1
        receiver._recv_cb(receiver.port, packet)

    def set_up(self, up: bool) -> None:
        if up == self.up:
            return
        self.up = up
        if not up:
            for token in self._wire:
                token[0] = False
            self._wire = []
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


class Device:
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
        self._serve_cb = self._serve

    def attach(self, port: int, end: ChannelEnd) -> None:
        if port in self.ports:
            raise ValueError(f"{self.name}: port {port} already wired")
        end.attach(self, port)
        self.ports[port] = end

    def receive(self, port: int, packet: Any) -> None:
        if not self.powered:
            return
        self.packets_received += 1
        if self._busy or self._queue:
            self._queue.append(("pkt", port, packet))
            return
        self._busy = True
        delay = self.proc_delay
        if delay < 0:
            raise ValueError(f"{self.name}: negative proc_delay {delay}")
        self.loop.call_after(delay, self._serve_cb, "pkt", port, packet)

    def port_state_changed(self, port: int, up: bool) -> None:
        if not self.powered:
            return
        self._queue.append(("port", port, up))
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        kind, port, item = self._queue.popleft()
        self.loop.call_after(self.proc_delay, self._serve_cb, kind, port, item)

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
        if not self.powered:
            return False
        try:
            end = self.ports[port]
        except KeyError:
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

    def power_off(self) -> None:
        self.powered = False
        self._queue.clear()
        for end in self.ports.values():
            end.channel.set_up(False)

    def power_on(self) -> None:
        self.powered = True
        for end in self.ports.values():
            end.channel.set_up(True)

    def handle_packet(self, port: int, packet: Any) -> None:
        raise NotImplementedError

    def handle_port_state(self, port: int, up: bool) -> None:
        """Default: ignore physical state changes."""
