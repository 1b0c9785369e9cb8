"""Tests for the discrete-event emulator core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import (
    Channel,
    Device,
    EventLoop,
    LinkSpec,
    Network,
    SimulationError,
    Tracer,
)
from repro.topology import line


class TestEventLoop:
    def test_ordering_by_time(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, order.append, "b")
        loop.schedule(1.0, order.append, "a")
        loop.schedule(3.0, order.append, "c")
        loop.run()
        assert order == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_fifo_at_equal_times(self):
        loop = EventLoop()
        order = []
        for i in range(5):
            loop.schedule(1.0, order.append, i)
        loop.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule(-0.1, lambda: None)

    def test_cancel(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(1.0, fired.append, 1)
        loop.schedule(2.0, fired.append, 2)
        handle.cancel()
        loop.run()
        assert fired == [2]

    def test_run_until_advances_clock(self):
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, fired.append, 1)
        executed = loop.run(until=2.0)
        assert executed == 0 and loop.now == 2.0 and fired == []
        loop.run()
        assert fired == [1] and loop.now == 5.0

    def test_nested_scheduling(self):
        loop = EventLoop()
        times = []

        def tick(n):
            times.append(loop.now)
            if n > 0:
                loop.schedule(1.0, tick, n - 1)

        loop.schedule(0.0, tick, 3)
        loop.run()
        assert times == [0.0, 1.0, 2.0, 3.0]

    def test_runaway_guard(self):
        loop = EventLoop()

        def forever():
            loop.schedule(0.0, forever)

        loop.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            loop.run_until_idle(max_events=1000)

    def test_max_events_pauses_and_resumes(self):
        loop = EventLoop()
        fired = []
        for i in range(10):
            loop.schedule(float(i), fired.append, i)
        loop.run(max_events=4)
        assert fired == [0, 1, 2, 3]
        loop.run()
        assert fired == list(range(10))

    def test_call_batch_fires_in_time_then_scheduling_order(self):
        loop = EventLoop()
        order = []
        loop.call_after(1.0, order.append, "before")
        loop.call_batch([(0.0, order.append, (0,)), (1.0, order.append, (1,)),
                         (1.0, order.append, (2,)), (2.0, order.append, (3,))])
        loop.call_after(1.0, order.append, "after")
        assert loop.pending == 6
        assert len(loop._heap) == 3  # the batch keeps only its head there
        assert loop.run() == 6
        assert order == [0, "before", 1, 2, "after", 3]
        assert loop.now == 2.0 and loop.events_run == 6 and loop.pending == 0

    def test_call_batch_negative_delay_schedules_nothing(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.call_batch([(1.0, print, ()), (-1e-9, print, ())])
        assert loop.pending == 0 and loop.run() == 0
        loop.call_batch([])
        assert loop.pending == 0

    def test_call_batch_out_of_order_or_negative_schedules_nothing(self):
        loop = EventLoop()
        loop.call_after(1.0, print)
        heap = list(loop._heap)
        for batch in (
            [(1.0, print, ()), (0.5, print, ())],
            [(0.0, print, ()), (2.0, print, ()), (2.0, print, ()), (1.0, print, ())],
            [(-1e-9, print, ()), (0.0, print, ())],
        ):
            with pytest.raises(SimulationError):
                loop.call_batch(batch)
            assert loop.pending == 1 and loop._heap == heap and loop._seq == 1

    def test_call_batch_pulls_at_most_one_item_ahead_of_its_head(self):
        class Counting:
            """A re-iterable batch that counts the items each pass pulled."""

            def __init__(self, items):
                self.items, self.pulled = items, 0

            def __len__(self):
                return len(self.items)

            def __iter__(self):
                self.pulled = 0
                for item in self.items:
                    self.pulled += 1
                    yield item

        loop = EventLoop()
        seen = []
        batch = Counting([(0.5 * (i // 2), lambda i: seen.append((i, batch.pulled)), (i,))
                          for i in range(7)])
        loop.call_batch(batch)
        assert batch.pulled == 1 and loop.pending == 7
        loop.run(max_events=3)
        assert batch.pulled == 4
        loop.run()
        # Firing item i has pulled item i + 1 (the last one, nothing more).
        assert seen == [(i, min(i + 2, 7)) for i in range(7)]

    def test_call_at_past_time_rejected(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.call_at(0.5, lambda: None)
        # At exactly now is still legal (zero-delay event).
        fired = []
        loop.call_at(1.0, fired.append, 1)
        loop.run()
        assert fired == [1]


class Recorder(Device):
    """Test device: logs everything it hears."""

    def __init__(self, name, loop, proc_delay=0.0):
        super().__init__(name, loop, proc_delay=proc_delay)
        self.packets = []
        self.port_events = []

    def handle_packet(self, port, packet):
        self.packets.append((self.loop.now, port, packet))

    def handle_port_state(self, port, up):
        self.port_events.append((self.loop.now, port, up))


class FakeFrame:
    def __init__(self, size_bytes=1000):
        self.size_bytes = size_bytes


def wire_pair(loop, bandwidth=None, latency=1e-3, **kw):
    a = Recorder("a", loop)
    b = Recorder("b", loop)
    channel = Channel(loop, bandwidth_bps=bandwidth, latency_s=latency, **kw)
    a.attach(1, channel.ends[0])
    b.attach(1, channel.ends[1])
    return a, b, channel


class TestChannel:
    def test_latency_only_delivery(self):
        loop = EventLoop()
        a, b, _ch = wire_pair(loop, latency=2e-3)
        a.send(1, FakeFrame())
        loop.run()
        assert len(b.packets) == 1
        assert b.packets[0][0] == pytest.approx(2e-3)

    def test_serialization_delay(self):
        loop = EventLoop()
        a, b, _ch = wire_pair(loop, bandwidth=8e6, latency=0.0)  # 1 MB/s
        a.send(1, FakeFrame(size_bytes=1000))  # 1 ms on the wire
        loop.run()
        assert b.packets[0][0] == pytest.approx(1e-3)

    def test_back_to_back_frames_queue(self):
        loop = EventLoop()
        a, b, _ch = wire_pair(loop, bandwidth=8e6, latency=0.0)
        a.send(1, FakeFrame(1000))
        a.send(1, FakeFrame(1000))
        loop.run()
        times = [t for t, _p, _f in b.packets]
        assert times == [pytest.approx(1e-3), pytest.approx(2e-3)]

    def test_down_channel_drops_and_notifies(self):
        loop = EventLoop()
        a, b, ch = wire_pair(loop)
        ch.fail()
        assert a.send(1, FakeFrame()) is False
        loop.run()
        assert b.packets == []
        assert a.port_events and a.port_events[0][2] is False
        assert b.port_events and b.port_events[0][2] is False

    def test_in_flight_frames_die_with_channel(self):
        loop = EventLoop()
        a, b, ch = wire_pair(loop, latency=5e-3)
        a.send(1, FakeFrame())
        loop.schedule(1e-3, ch.fail)
        loop.run()
        assert b.packets == []

    def test_restore_notifies_up(self):
        loop = EventLoop()
        a, b, ch = wire_pair(loop)
        ch.fail()
        loop.run()
        ch.restore()
        loop.run()
        assert a.port_events[-1][2] is True

    def test_set_same_state_is_noop(self):
        loop = EventLoop()
        a, _b, ch = wire_pair(loop)
        ch.restore()  # already up
        loop.run()
        assert a.port_events == []

    def test_channel_end_knows_no_background_shaping(self):
        # Fluid background load is the hybrid region's business (its
        # hops shape themselves); the cable model carries no hook for it.
        end = Channel(EventLoop(), bandwidth_bps=1e9).ends[0]
        assert "background_bps" not in type(end).__slots__
        with pytest.raises(AttributeError):
            end.background_bps = 5e8


class TestDevice:
    def test_processing_delay_serializes(self):
        loop = EventLoop()
        a, b, _ch = wire_pair(loop, latency=0.0)
        b.proc_delay = 1e-3
        a.send(1, FakeFrame())
        a.send(1, FakeFrame())
        loop.run()
        times = [t for t, _p, _f in b.packets]
        assert times == [pytest.approx(1e-3), pytest.approx(2e-3)]

    def test_power_off_drops_everything(self):
        loop = EventLoop()
        a, b, _ch = wire_pair(loop)
        b.power_off()
        a.send(1, FakeFrame())
        loop.run()
        assert b.packets == []

    def test_power_off_downs_links(self):
        loop = EventLoop()
        a, b, _ch = wire_pair(loop)
        b.power_off()
        loop.run()
        assert a.port_events and a.port_events[0][2] is False

    def test_double_attach_rejected(self):
        loop = EventLoop()
        a, _b, ch = wire_pair(loop)
        with pytest.raises(ValueError):
            a.attach(1, ch.ends[0])

    def test_send_on_missing_port(self):
        loop = EventLoop()
        dev = Recorder("solo", loop)
        assert dev.send(3, FakeFrame()) is False

    @pytest.mark.parametrize("bad", [-1e-6, float("nan"), float("inf")])
    def test_proc_delay_must_be_finite_and_non_negative(self, bad):
        # Checked once, at construction and in the setter, instead of
        # per frame (where the idle and queued paths raised different
        # errors, and only after the bad value had been accepted).
        loop = EventLoop()
        with pytest.raises(ValueError, match="proc_delay"):
            Recorder("r", loop, proc_delay=bad)
        dev = Recorder("r", loop, proc_delay=1e-6)
        with pytest.raises(ValueError, match="proc_delay"):
            dev.proc_delay = bad
        assert dev.proc_delay == 1e-6

    def test_proc_delay_is_a_number_not_a_callable(self):
        with pytest.raises(TypeError):
            Recorder("r", EventLoop(), proc_delay=lambda _frame: 1e-6)


class TestNetworkBuilder:
    def _factories(self):
        def sw(name, ports, network):
            return Recorder(name, network.loop)

        def host(name, network):
            return Recorder(name, network.loop)

        return sw, host

    def test_builds_all_devices(self):
        sw, host = self._factories()
        net = Network(line(3, hosts_per_switch=1), sw, host)
        assert set(net.switches) == {"L0", "L1", "L2"}
        assert len(net.hosts) == 3

    def test_fail_and_restore_link(self):
        sw, host = self._factories()
        net = Network(line(3), sw, host)
        net.fail_link("L0", 2, "L1", 1)
        net.run_until_idle()
        assert net.switches["L0"].port_events[-1][2] is False
        net.restore_link("L0", 2, "L1", 1)
        net.run_until_idle()
        assert net.switches["L0"].port_events[-1][2] is True

    def test_fail_unknown_link_raises(self):
        sw, host = self._factories()
        net = Network(line(3), sw, host)
        with pytest.raises(Exception):
            net.fail_link("L0", 5, "L1", 5)

    def test_device_lookup(self):
        sw, host = self._factories()
        net = Network(line(2), sw, host)
        assert net.device("L0").name == "L0"
        assert net.device("hL0_0").name == "hL0_0"
        with pytest.raises(KeyError):
            net.device("ghost")


class TestTracer:
    """The one event record: global record order and its query set."""

    def test_record_and_query(self):
        tracer = Tracer()
        tracer.record(1.0, "x", "n1", "d1")
        tracer.record(2.0, "x", "n1", "d2")
        tracer.record(3.0, "y", "n2")
        assert [ev.category for ev in tracer] == ["x", "x", "y"]
        assert list(tracer)[2] == (3.0, "y", "n2", None)
        assert list(tracer)[0].detail == "d1"
        assert tracer.first_time_per_node("x") == {"n1": 1.0}
        tracer.clear()
        assert list(tracer) == [] and tracer.seen("x") == 0

    def test_seen_and_last_slice_a_category(self):
        tracer = Tracer()
        for i in range(10):
            tracer.record(float(i), "cat", "node", i)
            tracer.record(float(i), "other", "node")
        assert tracer.seen("cat") == 10
        assert [ev.detail for ev in tracer.last("cat")] == list(range(10))
        assert [ev.detail for ev in tracer.last("cat", 2)] == [8, 9]
        assert tracer.last("cat", 0) == []
        assert tracer.last("missing") == [] and tracer.seen("missing") == 0
        summary = tracer.as_dict()
        assert list(summary) == ["cat", "other"]
        assert summary["cat"]["seen"] == summary["other"]["seen"] == 10
        assert [row["detail"] for row in summary["cat"]["last"]] == [
            str(i) for i in range(2, 10)
        ]


class TestQuiesceGuard:
    def test_raises_when_live_events_remain(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        with pytest.raises(SimulationError, match="did not quiesce"):
            loop.run_until_idle(max_events=1)

    def test_raises_even_when_cancelled_events_mask_live_ones(self):
        # The old guard scanned the heap for non-cancelled handles and
        # could be fooled; any *live* event left after max_events must
        # raise, regardless of dead entries around it.
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        dead = loop.schedule(2.0, lambda: None)
        dead.cancel()
        loop.schedule(3.0, lambda: None)  # live, will not run
        with pytest.raises(SimulationError, match="1 live"):
            loop.run_until_idle(max_events=1)

    def test_leftover_cancelled_entries_are_not_a_failure(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.schedule(5.0, lambda: None).cancel()
        loop.run_until_idle(max_events=1)  # dead weight is not work
        assert loop.pending == 0

    def test_fire_and_forget_counts_as_live(self):
        loop = EventLoop()
        loop.call_after(1.0, lambda: None)
        loop.call_after(2.0, lambda: None)
        with pytest.raises(SimulationError):
            loop.run_until_idle(max_events=1)


class TestLazyDeletion:
    def test_pending_is_maintained_not_scanned(self):
        loop = EventLoop()
        handles = [loop.schedule(1.0, lambda: None) for _ in range(10)]
        loop.call_after(1.0, lambda: None)
        assert loop.pending == 11
        for handle in handles[:4]:
            handle.cancel()
        assert loop.pending == 7
        handles[0].cancel()  # double-cancel is a no-op
        assert loop.pending == 7
        loop.run()
        assert loop.pending == 0

    def test_cancel_heavy_heap_stays_bounded(self):
        # Regression: before lazy deletion grew a compaction sweep,
        # arm/disarm churn (protocol retry timers) left every cancelled
        # entry in the heap until its deadline passed.
        from repro.netsim.events import COMPACT_MIN_DEAD

        loop = EventLoop()
        peak = 0
        cycles = 5000

        def noop():
            raise AssertionError("cancelled timer fired")

        def tick(n):
            nonlocal peak
            loop.schedule(1000.0, noop).cancel()
            peak = max(peak, len(loop._heap))
            if n > 0:
                loop.call_after(1e-6, tick, n - 1)

        loop.call_after(0.0, tick, cycles)
        loop.run()
        # One live chain timer plus at most ~2x the compaction floor of
        # dead entries between sweeps.
        assert peak <= 4 * COMPACT_MIN_DEAD
        assert loop.pending == 0

    def test_compaction_preserves_order(self):
        loop = EventLoop()
        fired = []
        keep = [loop.schedule(float(i), fired.append, i) for i in range(1, 6)]
        doomed = [loop.schedule(0.5, fired.append, -1) for _ in range(200)]
        for handle in doomed:
            handle.cancel()  # crosses the compaction threshold mid-loop
        assert loop.dead_entries < 200  # a sweep actually happened
        loop.run()
        assert fired == [1, 2, 3, 4, 5]
        assert all(h.callback is None for h in doomed)
        assert keep[0].callback is None  # fired handles read as spent


class TestChannelFifo:
    def test_jitter_cannot_reorder_frames(self):
        import random as _random

        loop = EventLoop()
        a, b, _ch = wire_pair(
            loop, latency=1e-3, jitter_s=1e-3, rng=_random.Random(3)
        )
        frames = [FakeFrame() for _ in range(50)]
        for frame in frames:
            a.send(1, frame)
        loop.run()
        assert [f for _t, _p, f in b.packets] == frames
        times = [t for t, _p, _f in b.packets]
        assert times == sorted(times)

    def test_directions_clamp_independently(self):
        import random as _random

        loop = EventLoop()
        a, b, ch = wire_pair(
            loop, latency=1e-3, jitter_s=5e-3, rng=_random.Random(1)
        )
        a.send(1, FakeFrame())
        b.send(1, FakeFrame())
        a.send(1, FakeFrame())
        b.send(1, FakeFrame())
        loop.run()
        # Two frames each way, in order on each side; the huge jitter
        # on one direction must not delay the other.
        assert len(a.packets) == 2 and len(b.packets) == 2
        assert [t for t, _p, _f in a.packets] == sorted(t for t, _p, _f in a.packets)

    def test_fifo_survives_line_flap(self):
        # busy_until/last_arrival reset on line-down: frames sent after
        # a restore must not queue behind ghosts of dropped frames.
        loop = EventLoop()
        a, b, ch = wire_pair(loop, bandwidth=8e3, latency=0.0)  # 1 KB/s
        for _ in range(10):
            a.send(1, FakeFrame(1000))  # 1 s serialization each
        ch.fail()
        loop.run()
        assert b.packets == []  # all died with the line
        ch.restore()
        loop.run()
        t0 = loop.now
        a.send(1, FakeFrame(1000))
        loop.run()
        assert len(b.packets) == 1
        assert b.packets[0][0] == pytest.approx(t0 + 1.0)  # not t0 + 11s

    def test_frame_on_the_wire_across_a_flap_is_dropped(self):
        # Regression: only the line state at arrival was checked, so a
        # frame in flight across fail(); restore() was delivered -- at
        # 18 us, after a frame sent behind it (15.08 us), because the
        # flap had reset the FIFO clamp.
        loop = EventLoop()
        a, b, ch = wire_pair(loop, bandwidth=1e9, latency=10e-6)
        a.send(1, "old", size_bits=8000)

        def flap_then_send():
            ch.fail()
            ch.restore()
            a.send(1, "new", size_bits=80)

        loop.schedule(5e-6, flap_then_send)
        loop.run()
        assert [(t, f) for t, _p, f in b.packets] == [(pytest.approx(15.08e-6), "new")]
        assert ch.frames_delivered == 1 and ch.frames_dropped == 1


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**20),
    jitter=st.floats(0.0, 5e-3),
    bandwidth=st.sampled_from([None, 8e3, 8e6, 1e9]),
    sizes=st.lists(st.integers(1, 2000), min_size=2, max_size=30),
)
def test_fifo_property_under_jitter_and_bandwidth(seed, jitter, bandwidth, sizes):
    """Delivery order equals send order for any jitter/bandwidth mix."""
    import random as _random

    loop = EventLoop()
    a, b, _ch = wire_pair(
        loop,
        bandwidth=bandwidth,
        latency=1e-3,
        jitter_s=jitter,
        rng=_random.Random(seed),
    )
    frames = [FakeFrame(size) for size in sizes]
    gap_rng = _random.Random(seed + 1)
    t = 0.0
    for frame in frames:
        t += gap_rng.uniform(0.0, 2e-3)
        loop.schedule(t, a.send, 1, frame)
    loop.run()
    delivered = [f for _t, _p, f in b.packets]
    assert delivered == frames
    times = [t for t, _p, _f in b.packets]
    assert times == sorted(times)
