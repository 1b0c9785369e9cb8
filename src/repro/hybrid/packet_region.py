"""Packet-level zoom region driven by the netsim event loop.

The region owns one :class:`~repro.netsim.events.EventLoop` and lazily
materialises one :class:`~repro.netsim.channel.Channel` per *directed*
fluid link a promoted flow crosses (capacity taken straight from the
:class:`~repro.flowsim.network.FlowNet`).  Channels are shared between
promoted flows, so two promoted flows crossing the same uplink contend
for it with real per-frame FIFO serialization -- the microbehaviour the
fluid model cannot express.

Traffic that stays fluid is projected onto the region as *shaped
background load*: ``ChannelEnd.background_bps`` steals serialization
bandwidth from the foreground frames (see ``netsim/channel.py``).  The
engine refreshes the backgrounds from every max-min solve.

A promoted flow is a :class:`ZoomFlow`: an MTU-sized frame train pushed
through its chain of channels with a self-clocked window -- a new frame
is injected when one reaches the final hop, keeping ``window`` frames
in flight.  The window is sized so the pipe, not the window, is the
bottleneck (throughput then tracks the residual bandwidth of the
bottleneck hop, which is the quantity the boundary contract feeds back
to the fluid side).

Mid-flight reroutes swap the *chain* (a fresh list), so frames already
in flight finish on the path they started on -- the packet-level
equivalent of bits already in the pipe when the fluid model reroutes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..flowsim.network import FlowNet
from ..flowsim.simulator import Flow
from ..netsim.channel import Channel, ChannelEnd
from ..netsim.events import EventLoop

__all__ = ["PacketRegion", "ZoomFlow"]

LinkId = Tuple


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
