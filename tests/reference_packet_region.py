"""The seed packet region, kept as an oracle.

``_Frame`` / ``ZoomFlow`` / ``_Sink`` / ``PacketRegion`` are the bodies
``repro.hybrid.packet_region`` had before the FIFO-merge rewrite
(commit 0fa2b3b), copied verbatim: one heap entry per frame on a real
:class:`~repro.netsim.events.EventLoop`, one ``Channel`` per directed
link, a ``_deliver`` -> ``_Sink.receive`` -> ``transmit`` call chain per
hop.  ``Channel`` / ``ChannelEnd`` are the part of the seed
``netsim/channel.py`` that chain exercised -- the zero-perturbation
``transmit`` fast path *with* the ``background_bps`` shaping the
production channel no longer has, and ``_deliver`` -- minus fault knobs,
counters and the slow path, which a region channel never reached.  It
shares no code with the kernel except the scheduler, so
``test_packet_region_differential.py`` can demand kernel == reference
exactly.  Nothing under ``src/`` may import this module.
"""

from heapq import heappush
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.flowsim.network import FlowNet
from repro.flowsim.simulator import Flow
from repro.netsim.events import EventLoop

LinkId = Tuple


class ChannelEnd:
    """One plug of a channel: knows its device, port, and twin."""

    __slots__ = ("channel", "index", "device", "port", "busy_until",
                 "last_arrival", "peer", "background_bps", "_recv_cb")

    def __init__(self, channel: "Channel", index: int) -> None:
        self.channel = channel
        self.index = index
        self.device = None
        self.port: int = -1
        # Per-direction transmit queue state: when the line frees up,
        # and the latest arrival already booked (the FIFO clamp).
        self.busy_until: float = 0.0
        self.last_arrival: float = 0.0
        # Shaped background load (bps) stealing bandwidth from this
        # direction -- the hybrid engine projects fluid-simulated
        # traffic onto packet-level channels this way.  Zero (the
        # default) leaves the transmit arithmetic untouched.
        self.background_bps: float = 0.0
        # The twin end; assigned by Channel.__init__ once both exist.
        self.peer: "ChannelEnd" = None  # type: ignore[assignment]
        self._recv_cb = None

    def attach(self, device: Any, port: int) -> None:
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
    ) -> None:
        self.loop = loop
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.up = True
        self.ends = (ChannelEnd(self, 0), ChannelEnd(self, 1))
        self.ends[0].peer = self.ends[1]
        self.ends[1].peer = self.ends[0]
        self.frames_delivered = 0
        self.frames_dropped = 0
        self._deliver_cb = self._deliver

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
        bandwidth = self.bandwidth_bps
        bg = sender.background_bps
        if bg and bandwidth:
            bandwidth -= bg
            if bandwidth <= 0.0:
                # Saturated by background: never fully starve the
                # foreground, or a promoted flow could deadlock.
                bandwidth = self.bandwidth_bps * 1e-6
        free = start + size_bits / bandwidth if bandwidth else start
        sender.busy_until = free
        arrival = free + self.latency_s
        if arrival < sender.last_arrival:
            arrival = sender.last_arrival
        else:
            sender.last_arrival = arrival
        # Inlined EventLoop.call_at -- this push is the single
        # hottest line of the emulator.
        seq = loop._seq
        loop._seq = seq + 1
        heappush(loop._heap, (arrival, seq, self._deliver_cb, (receiver, packet)))
        loop._live += 1
        return True

    def _deliver(self, receiver: ChannelEnd, packet: Any) -> None:
        if not self.up:
            self.frames_dropped += 1
            return
        self.frames_delivered += 1
        receiver._recv_cb(receiver.port, packet)


class _Frame:
    """One MTU-sized frame of a promoted flow, with its captured chain."""

    __slots__ = ("zoom", "bits", "hops", "idx")

    def __init__(self, zoom: "ZoomFlow", bits: float, hops: List[ChannelEnd]) -> None:
        self.zoom = zoom
        self.bits = bits
        self.hops = hops
        self.idx = 0


class ZoomFlow:
    """A fluid flow promoted to packet fidelity."""

    __slots__ = (
        "flow",
        "chain",
        "inflight",
        "remaining_inject",
        "delivered_epoch",
        "stalled",
        "done",
    )

    def __init__(self, flow: Flow, chain: List[ChannelEnd]) -> None:
        self.flow = flow
        #: Sender ends of the channels along the current route.  Frames
        #: capture the list object at injection; a reroute installs a
        #: *new* list, leaving in-flight frames on their old path.
        self.chain = chain
        self.inflight = 0
        self.remaining_inject = flow.remaining_bits
        #: Bits that completed the final hop since the last harvest.
        self.delivered_epoch = 0.0
        self.stalled = False
        self.done = False


class _Sink:
    """The single receive endpoint behind every region channel."""

    __slots__ = ("region",)

    def __init__(self, region: "PacketRegion") -> None:
        self.region = region

    def receive(self, _port: int, frame: _Frame) -> None:
        """One frame finished one hop: forward it, or deliver it and
        let the window inject the next."""
        hops = frame.hops
        idx = frame.idx = frame.idx + 1
        if idx < len(hops):
            end = hops[idx]
            end.channel.transmit(end, frame, frame.bits)
            return
        region = self.region
        zoom = frame.zoom
        zoom.inflight -= 1
        zoom.delivered_epoch += frame.bits
        region.frames_delivered += 1
        flow = zoom.flow
        remaining = flow.remaining_bits - frame.bits
        flow.remaining_bits = remaining if remaining > 0.0 else 0.0
        if zoom.remaining_inject > 0 and not zoom.stalled:
            region._inject_one(zoom)
        elif zoom.inflight == 0 and zoom.remaining_inject <= 0 and not zoom.done:
            zoom.done = True
            flow.remaining_bits = 0.0
            region.finished.append((zoom, region.loop.now))


class PacketRegion:
    """Shared packet-level substrate for all promoted flows."""

    def __init__(
        self,
        net: FlowNet,
        *,
        latency_s: float = 1e-6,
        mtu_bytes: int = 1450,
        window: int = 32,
    ) -> None:
        self.net = net
        self.loop = EventLoop()
        self.latency_s = latency_s
        self.mtu_bits = float(mtu_bytes * 8)
        self.window = window
        self._sink = _Sink(self)
        self._channels: Dict[LinkId, Channel] = {}
        self.zooms: List[ZoomFlow] = []
        #: (zoom, finish time) pairs awaiting engine harvest.  Finish
        #: times are packet-measured (mid-epoch), which is the fidelity
        #: promotion buys for FCTs.
        self.finished: List[Tuple[ZoomFlow, float]] = []
        self.frames_delivered = 0
        self.background_links = 0

    # ------------------------------------------------------------------

    def channel_for(self, link: LinkId) -> Channel:
        channel = self._channels.get(link)
        if channel is None:
            channel = Channel(
                self.loop,
                bandwidth_bps=self.net.capacities[link],
                latency_s=self.latency_s,
            )
            # Only the receive side needs a device; the region never
            # fails these channels (failures live in the FlowNet and
            # surface as reroutes/stalls at the next max-min epoch).
            channel.ends[1].attach(self._sink, 0)
            self._channels[link] = channel
        return channel

    def _chain_for(self, links: Sequence[LinkId]) -> List[ChannelEnd]:
        return [self.channel_for(link).ends[0] for link in links]

    # ------------------------------------------------------------------
    # flow lifecycle (driven by the engine; loop.now == engine.now here)

    def start_flow(self, flow: Flow, links: Sequence[LinkId]) -> ZoomFlow:
        zoom = ZoomFlow(flow, self._chain_for(links))
        self.zooms.append(zoom)
        if zoom.remaining_inject <= 0:
            zoom.done = True
            self.finished.append((zoom, self.loop.now))
        else:
            self._pump(zoom)
        return zoom

    def rechain(self, zoom: ZoomFlow, links: Sequence[LinkId]) -> None:
        """Install a new route and resume injection."""
        zoom.chain = self._chain_for(links)
        zoom.stalled = False
        self._pump(zoom)

    def stall(self, zoom: ZoomFlow) -> None:
        """Route died and no replacement exists: stop injecting.  Frames
        already in flight still drain on their captured chains."""
        zoom.stalled = True

    def _pump(self, zoom: ZoomFlow) -> None:
        while (
            zoom.inflight < self.window
            and zoom.remaining_inject > 0
            and not zoom.stalled
        ):
            self._inject_one(zoom)

    def _inject_one(self, zoom: ZoomFlow) -> None:
        bits = self.mtu_bits
        if bits > zoom.remaining_inject:
            bits = zoom.remaining_inject
        zoom.remaining_inject -= bits
        zoom.inflight += 1
        end = zoom.chain[0]
        end.channel.transmit(end, _Frame(zoom, bits, zoom.chain), bits)

    # ------------------------------------------------------------------
    # boundary contract (engine side)

    def advance_to(self, t: float) -> None:
        """Run the packet loop exactly to the fluid clock."""
        if t > self.loop.now:
            self.loop.run(until=t)

    def set_backgrounds(self, loads_bps: Mapping[LinkId, float]) -> None:
        """Project the fluid-only allocation onto the region channels.

        Every materialised channel gets the current fluid load of its
        link as shaped background; links the fluid side no longer uses
        are reset to zero.  Max-min feasibility guarantees background +
        promoted share <= capacity, so the residual a promoted flow
        serialises into is at least its fluid-fair share.
        """
        applied = 0
        for link, channel in self._channels.items():
            bg = loads_bps.get(link, 0.0)
            channel.ends[0].background_bps = bg
            if bg:
                applied += 1
        self.background_links = applied

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

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "clock_s": self.loop.now,
            "events_run": self.loop.events_run,
            "frames_delivered": self.frames_delivered,
            "channels": len(self._channels),
            "live_flows": len(self.zooms),
            "background_links": self.background_links,
        }
