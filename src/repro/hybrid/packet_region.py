"""Packet-level zoom region: a self-contained FIFO-network kernel.

The region lazily materialises one :class:`_Hop` per *directed* fluid
link a promoted flow crosses (capacity taken straight from the
:class:`~repro.flowsim.network.FlowNet`).  Hops are shared between
promoted flows, so two promoted flows crossing the same uplink contend
for it with real per-frame FIFO serialization -- the microbehaviour the
fluid model cannot express.  A hop is the unperturbed netsim cable,
float for float: a frame starts serialising when the line frees up
(``busy_until``), holds it for ``bits / residual`` and arrives
``latency_s`` later.  Hops never fail (failures live in the FlowNet and
surface as reroutes / stalls at the next max-min epoch), so the region
has one event type -- a frame finished a hop -- and runs it on its own
clock and queues (:meth:`PacketRegion.advance_to`), not on a general
scheduler.

Traffic that stays fluid is projected onto the region as *shaped
background load* stealing serialization bandwidth from the foreground
frames (:meth:`_Hop.shape`); the engine refreshes it from every max-min
solve.

A promoted flow is a :class:`ZoomFlow`: an MTU-sized frame train pushed
through its chain of hops with a self-clocked window -- a new frame is
injected when one reaches the final hop, keeping ``window`` frames in
flight.  The window is sized so the pipe, not the window, is the
bottleneck (throughput then tracks the residual bandwidth of the
bottleneck hop, which is the quantity the boundary contract feeds back
to the fluid side).

Mid-flight reroutes swap the *chain* (a fresh list), so frames already
in flight finish on the path they started on -- the packet-level
equivalent of bits already in the pipe when the fluid model reroutes.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush, heapreplace
from typing import Deque, Dict, List, Mapping, Sequence, Tuple

from ..core.packet import DUMBNET_MTU
from ..flowsim.network import FlowNet
from ..flowsim.simulator import Flow

__all__ = ["PacketRegion", "ZoomFlow"]

LinkId = Tuple


class _Hop:
    """One directed link of the region: a FIFO cable, constant latency."""

    __slots__ = ("capacity_bps", "background_bps", "residual_bps", "busy_until", "queue")

    def __init__(self, capacity_bps: float) -> None:
        self.capacity_bps = capacity_bps
        self.shape(0.0)
        self.busy_until = 0.0  # when the line frees up; never decreases
        #: Booked ``(arrival, seq, hop, frame)`` entries, in booking order.
        self.queue: Deque[Tuple[float, int, "_Hop", "_Frame"]] = deque()

    def shape(self, background_bps: float) -> None:
        """Set the fluid load on this link; frames serialise into the rest."""
        self.background_bps = background_bps
        self.residual_bps = self.capacity_bps - background_bps
        if self.residual_bps <= 0.0:
            # Saturated by background: never fully starve the
            # foreground, or a promoted flow could deadlock.
            self.residual_bps = self.capacity_bps * 1e-6


class _Frame:
    """One MTU-sized frame of a promoted flow, with its captured chain."""

    __slots__ = ("zoom", "bits", "hops", "idx")

    def __init__(self, zoom: "ZoomFlow", bits: float, hops: List[_Hop]) -> None:
        self.zoom = zoom
        self.bits = bits
        self.hops = hops
        self.idx = 0


class ZoomFlow:
    """A fluid flow promoted to packet fidelity."""

    __slots__ = ("flow", "chain", "inflight", "remaining_inject",
                 "delivered_epoch", "stalled", "done")

    def __init__(self, flow: Flow, chain: List[_Hop]) -> None:
        self.flow = flow
        #: Hops along the current route.  Frames capture the list object
        #: at injection; a reroute installs a *new* list, leaving
        #: in-flight frames on their old path.
        self.chain = chain
        self.inflight = 0
        self.remaining_inject = flow.remaining_bits
        #: Bits that completed the final hop since the last harvest.
        self.delivered_epoch = 0.0
        self.stalled = False
        self.done = False


class PacketRegion:
    """Shared packet-level substrate for all promoted flows."""

    def __init__(
        self,
        net: FlowNet,
        *,
        latency_s: float = 1e-6,
        mtu_bytes: int = DUMBNET_MTU,
        window: int = 32,
    ) -> None:
        # A zero window loses the flow, a zero MTU never drains it and a
        # negative latency books arrivals in the past; `not >=` also
        # refuses NaN.
        if not latency_s >= 0:
            raise ValueError(f"latency_s must be >= 0, got {latency_s}")
        if not mtu_bytes >= 1:
            raise ValueError(f"mtu_bytes must be >= 1, got {mtu_bytes}")
        if not window >= 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.net = net
        self.latency_s = latency_s
        self.mtu_bits = float(mtu_bytes * 8)
        self.window = window
        self.now = 0.0  # equals the engine's clock at every coupling
        self.events_run = 0  # hop completions, one per frame per hop
        self.frames_delivered = 0
        self._hops: Dict[LinkId, _Hop] = {}
        # The head entry of every non-empty hop queue.  Per hop
        # ``busy_until`` never decreases and latency is constant, so each
        # queue is sorted by (arrival, seq) and the minimum over queue
        # heads is the minimum over all booked frames: draining heads in
        # heap order is the order of one heap over every frame, kept over
        # links instead.  ``seq`` (one region-wide booking counter) is
        # unique, so tuple comparison never reaches the hop.
        self._heap: List[Tuple[float, int, _Hop, _Frame]] = []
        self._seq = 0
        self.zooms: List[ZoomFlow] = []
        #: (zoom, finish time) pairs awaiting engine harvest.  Finish
        #: times are packet-measured (mid-epoch), which is the fidelity
        #: promotion buys for FCTs.
        self.finished: List[Tuple[ZoomFlow, float]] = []

    def hop_for(self, link: LinkId) -> _Hop:
        hop = self._hops.get(link)
        if hop is None:
            hop = self._hops[link] = _Hop(self.net.capacities[link])
        return hop

    @property
    def idle(self) -> bool:
        """No frame is in flight anywhere in the region."""
        return not self._heap

    # ------------------------------------------------------------------
    # flow lifecycle (driven by the engine; self.now == engine.now here)

    def start_flow(self, flow: Flow, links: Sequence[LinkId]) -> ZoomFlow:
        zoom = ZoomFlow(flow, [self.hop_for(link) for link in links])
        self.zooms.append(zoom)
        if zoom.remaining_inject <= 0:
            zoom.done = True
            self.finished.append((zoom, self.now))
        else:
            self._pump(zoom)
        return zoom

    def rechain(self, zoom: ZoomFlow, links: Sequence[LinkId]) -> None:
        """Install a new route and resume injection."""
        zoom.chain = [self.hop_for(link) for link in links]
        zoom.stalled = False
        self._pump(zoom)

    def stall(self, zoom: ZoomFlow) -> None:
        """Route died and no replacement exists: stop injecting.  Frames
        already in flight still drain on their captured chains."""
        zoom.stalled = True

    def _pump(self, zoom: ZoomFlow) -> None:
        """Fill the window at the current clock (start / reroute); the
        booking is the one ``advance_to`` does inline for every hop."""
        now = self.now
        while zoom.inflight < self.window and zoom.remaining_inject > 0 and not zoom.stalled:
            bits = min(self.mtu_bits, zoom.remaining_inject)
            zoom.remaining_inject -= bits
            zoom.inflight += 1
            hop = zoom.chain[0]
            free = hop.busy_until = max(hop.busy_until, now) + bits / hop.residual_bps
            entry = (free + self.latency_s, self._seq, hop, _Frame(zoom, bits, zoom.chain))
            self._seq += 1
            if not hop.queue:
                heappush(self._heap, entry)
            hop.queue.append(entry)

    # ------------------------------------------------------------------
    # boundary contract (engine side)

    def advance_to(self, t: float) -> None:
        """Run the packet clock exactly to the fluid clock: every frame
        whose hop completes by ``t`` is booked on its next hop, or
        delivered -- and the window injects the flow's next frame."""
        if not t > self.now:
            return
        heap, finished = self._heap, self.finished
        latency, mtu_bits = self.latency_s, self.mtu_bits
        now, seq = self.now, self._seq
        executed = delivered = 0
        # Cyclic gc paused as in EventLoop.run: the per-event garbage
        # (queue entries) is acyclic and dies by refcount.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while heap:
                now, _seq, hop, frame = heap[0]
                if now > t:
                    break
                queue = hop.queue
                queue.popleft()
                if queue:
                    heapreplace(heap, queue[0])
                else:
                    heappop(heap)
                executed += 1
                bits = frame.bits
                hops = frame.hops
                idx = frame.idx + 1
                if idx < len(hops):
                    frame.idx = idx
                    hop = hops[idx]
                else:
                    zoom = frame.zoom
                    zoom.delivered_epoch += bits
                    delivered += 1
                    flow = zoom.flow
                    remaining = flow.remaining_bits - bits
                    flow.remaining_bits = remaining if remaining > 0.0 else 0.0
                    to_inject = zoom.remaining_inject
                    if to_inject <= 0 or zoom.stalled:
                        zoom.inflight -= 1
                        if zoom.inflight == 0 and to_inject <= 0 and not zoom.done:
                            zoom.done = True
                            flow.remaining_bits = 0.0
                            finished.append((zoom, now))
                        continue
                    # The window injects: the delivered frame object
                    # becomes the next frame, so ``inflight`` stands.
                    bits = frame.bits = mtu_bits if mtu_bits < to_inject else to_inject
                    zoom.remaining_inject = to_inject - bits
                    frame.hops = hops = zoom.chain
                    frame.idx = 0
                    hop = hops[0]
                # Book the frame on ``hop`` at ``now``.
                start = hop.busy_until
                if start < now:
                    start = now
                free = hop.busy_until = start + bits / hop.residual_bps
                entry = (free + latency, seq, hop, frame)
                seq += 1
                queue = hop.queue
                if not queue:
                    heappush(heap, entry)
                queue.append(entry)
            now = t
        finally:
            self.now, self._seq = now, seq
            self.events_run += executed
            self.frames_delivered += delivered
            if gc_was_enabled:
                gc.enable()

    def set_backgrounds(self, loads_bps: Mapping[LinkId, float]) -> None:
        """Project the fluid-only allocation onto the region's hops.

        Every materialised hop gets the current fluid load of its link
        as shaped background; links the fluid side no longer uses are
        reset to zero.  Max-min feasibility guarantees background +
        promoted share <= capacity, so the residual a promoted flow
        serialises into is at least its fluid-fair share.
        """
        for link, hop in self._hops.items():
            hop.shape(loads_bps.get(link, 0.0))

    def harvest(self) -> Tuple[Dict[int, float], List[Tuple[ZoomFlow, float]]]:
        """Collect per-flow bits delivered since the last harvest, and
        the flows that finished.  Finished zooms leave the live list."""
        delivered: Dict[int, float] = {}
        for zoom in self.zooms:
            if zoom.delivered_epoch:
                delivered[zoom.flow.fid] = zoom.delivered_epoch
                zoom.delivered_epoch = 0.0
        finished = self.finished
        if finished:
            self.finished = []
            done = set(id(z) for z, _t in finished)
            self.zooms = [z for z in self.zooms if id(z) not in done]
        return delivered, finished

    def stats(self) -> Dict[str, float]:
        return {
            "clock_s": self.now,
            "events_run": self.events_run,
            "frames_delivered": self.frames_delivered,
            "channels": len(self._hops),
            "live_flows": len(self.zooms),
            "background_links": sum(1 for h in self._hops.values() if h.background_bps),
        }
