"""Packet region == seed packet region, exactly.

``reference_packet_region.py`` holds the region as it was before the
FIFO-merge rewrite: one ``Channel`` per directed link and one heap entry
per frame on a real ``EventLoop``.  The property below replays one
random script of engine-side calls on both and demands equal answers
after every step -- ``==`` on floats, no tolerance.  A second,
example-based test pins the other half of the contract: with no
background the hop arithmetic is the production ``netsim.Channel``'s.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_packet_region as ref
from repro.flowsim.simulator import Flow
from repro.hybrid.packet_region import PacketRegion
from repro.netsim.channel import Channel
from repro.netsim.events import EventLoop

CAPACITIES = [1e8, 1e9, 2.5e9, 1e10, 4e10, 3.3e9, 7.77e8]


@st.composite
def scripts(draw):
    """(capacities, region kwargs, ops).  Flow sizes include 0, sub-MTU
    and non-multiples of the MTU; backgrounds are zero, partial, at and
    above capacity (and name links no flow has touched yet); reroutes
    land on shared and on disjoint links while frames are in flight;
    time steps run from "no-op" through sub-frame to "drain everything"."""
    n_links = draw(st.integers(1, 8))
    links = [("tx", f"s{i // 2}", i) for i in range(n_links)]
    capacities = {link: draw(st.sampled_from(CAPACITIES)) for link in links}
    mtu_bytes = draw(st.sampled_from([1, 7, 64, 1450, 9000]))
    kwargs = {
        "latency_s": draw(st.sampled_from([0.0, 1e-6, 3.7e-5])),
        "mtu_bytes": mtu_bytes,
        "window": draw(st.sampled_from([1, 2, 3, 8, 32])),
    }
    mtu_bits = mtu_bytes * 8
    frame_s = mtu_bits / 1e9
    route = st.lists(st.sampled_from(links), min_size=1, max_size=4)
    size = st.one_of(
        st.sampled_from([0.0, 1.0, mtu_bits / 2, float(mtu_bits), mtu_bits * 2.5]),
        st.integers(0, 40 * mtu_bits).map(float),
        st.floats(0.0, 40.0 * mtu_bits, allow_nan=False),
    )
    step = st.one_of(
        st.sampled_from([-1e-3, 0.0, frame_s / 3, frame_s, 10 * frame_s, 1.0, 1e4]),
        st.floats(0.0, 200 * frame_s, allow_nan=False),
    )
    background = st.dictionaries(
        st.sampled_from(links),
        st.sampled_from([0.0, 0.25, 0.5, 0.999, 1.0, 1.5]),
        max_size=n_links,
    )
    op = st.one_of(
        st.tuples(st.just("start"), size, route),
        st.tuples(st.just("advance"), step),
        st.tuples(st.just("advance"), step),
        st.tuples(st.just("backgrounds"), background),
        st.tuples(st.just("stall"), st.integers(0, 50)),
        st.tuples(st.just("rechain"), st.integers(0, 50), route),
        st.tuples(st.just("harvest")),
    )
    ops = draw(st.lists(op, min_size=1, max_size=40))
    # Always end by draining and harvesting, so finish times are compared.
    ops += [("advance", 1e9), ("harvest",)]
    return capacities, kwargs, ops


class _Side:
    """One region under test plus the flows / zooms the script made."""

    def __init__(self, region):
        self.region = region
        self.zooms = []

    def apply(self, op, capacities):
        """Run one op; return whatever it returned, in comparable form."""
        region, kind = self.region, op[0]
        if kind == "start":
            fid = len(self.zooms)
            flow = Flow(fid, "a", "b", op[1], 0.0, remaining_bits=op[1])
            self.zooms.append(region.start_flow(flow, op[2]))
        elif kind == "advance":
            region.advance_to(region.stats()["clock_s"] + op[1])
        elif kind == "backgrounds":
            region.set_backgrounds(
                {link: frac * capacities[link] for link, frac in op[1].items()}
            )
        elif kind == "stall" and self.zooms:
            region.stall(self.zooms[op[1] % len(self.zooms)])
        elif kind == "rechain" and self.zooms:
            region.rechain(self.zooms[op[1] % len(self.zooms)], op[2])
        elif kind == "harvest":
            delivered, finished = region.harvest()
            return list(delivered.items()), [(z.flow.fid, t) for z, t in finished]
        return None

    def state(self):
        region = self.region
        return (
            region.stats(),  # clock, events_run, frames_delivered, ...
            [(z.flow.fid, t) for z, t in region.finished],
            [z.flow.fid for z in region.zooms],
            [
                (z.flow.remaining_bits, z.inflight, z.remaining_inject,
                 z.delivered_epoch, z.stalled, z.done)
                for z in self.zooms
            ],
        )


@settings(max_examples=300, deadline=None)
@given(scripts())
def test_region_equals_the_seed_region_float_for_float(script):
    capacities, kwargs, ops = script
    net = SimpleNamespace(capacities=capacities)
    new = _Side(PacketRegion(net, **kwargs))
    old = _Side(ref.PacketRegion(net, **kwargs))
    for op in ops:
        got, want = new.apply(op, capacities), old.apply(op, capacities)
        assert got == want, op
        assert new.state() == old.state(), op
        assert new.region.now == old.region.loop.now
        assert new.region.events_run == old.region.loop.events_run
        assert new.region.idle == (old.region.loop.pending == 0)
    assert all(z.done or z.stalled for z in new.zooms)


def test_unshaped_region_equals_production_channels():
    """DESIGN.md: ``background_bps == 0`` leaves the arithmetic
    bit-identical to native netsim.  A windowed frame train over a line
    of three production channels finishes at the region's float."""
    capacities = [1e9, 2.5e9, 7.77e8]
    latency_s, mtu_bytes, window, size_bits = 1e-6, 1450, 4, 1450 * 8 * 25.5

    class Relay:
        """Forward to the next channel; at the end, deliver and let the
        window inject the next frame (``_Sink.receive`` of the seed)."""

        def __init__(self):
            self.to_inject = size_bits
            self.inflight = 0
            self.finished_at = None

        def inject(self):
            bits = min(mtu_bytes * 8.0, self.to_inject)
            self.to_inject -= bits
            self.inflight += 1
            channels[0].ends[0].transmit([0, bits], bits)

        def receive(self, _port, frame):
            frame[0] += 1
            if frame[0] < len(channels):
                channels[frame[0]].ends[0].transmit(frame, frame[1])
                return
            self.inflight -= 1
            if self.to_inject > 0:
                self.inject()
            elif self.inflight == 0:
                self.finished_at = loop.now

    loop = EventLoop()
    relay = Relay()
    channels = [Channel(loop, bandwidth_bps=c, latency_s=latency_s) for c in capacities]
    for channel in channels:
        channel.ends[1].attach(relay, 0)
    while relay.inflight < window and relay.to_inject > 0:
        relay.inject()
    loop.run()

    links = [("tx", "s", i) for i in range(3)]
    region = PacketRegion(
        SimpleNamespace(capacities=dict(zip(links, capacities))),
        latency_s=latency_s, mtu_bytes=mtu_bytes, window=window,
    )
    region.start_flow(Flow(0, "a", "b", size_bits, 0.0, remaining_bits=size_bits), links)
    region.advance_to(1.0)
    [(_zoom, finished_at)] = region.finished
    assert finished_at == relay.finished_at
    assert region.events_run == loop.events_run == 26 * 3
