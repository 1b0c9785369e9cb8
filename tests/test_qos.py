"""Priority-queueing switch tests."""

import pytest

from repro.core.messages import AppData, PortStateNotification
from repro.core.packet import (
    ETHERTYPE_DUMBNET,
    ETHERTYPE_NOTIFY,
    Packet,
    PathTags,
)
from repro.core.qos import PRIORITY_BULK, PRIORITY_CONTROL, PRIORITY_DATA, QosSwitch
from repro.netsim import Channel, Device, EventLoop


class Sink(Device):
    def __init__(self, name, loop):
        super().__init__(name, loop)
        self.packets = []

    def handle_packet(self, port, packet):
        self.packets.append((self.loop.now, packet))


def rig(bandwidth=8e6):
    """QosSwitch with one slow egress (1 ms per 1000-byte frame)."""
    loop = EventLoop()
    switch = QosSwitch("S", 4, loop)
    sink = Sink("sink", loop)
    channel = Channel(loop, bandwidth_bps=bandwidth, latency_s=0.0)
    switch.attach(1, channel.ends[0])
    sink.attach(1, channel.ends[1])
    return loop, switch, sink


def frame(tags, priority=PRIORITY_DATA, label=None):
    return Packet(
        src="x", ethertype=ETHERTYPE_DUMBNET, tags=PathTags(tags),
        payload=AppData(label), payload_bytes=1000, priority=priority,
    )


class TestPriorityScheduling:
    def test_idle_line_passes_straight_through(self):
        loop, switch, sink = rig()
        switch.receive(2, frame([1], label="only"))
        loop.run()
        assert len(sink.packets) == 1
        assert switch.frames_queued == 0

    def test_fifo_within_one_class(self):
        loop, switch, sink = rig()
        for i in range(4):
            switch.receive(2, frame([1], label=i))
        loop.run()
        labels = [p.payload.data for _t, p in sink.packets]
        assert labels == [0, 1, 2, 3]

    def test_high_priority_overtakes_queued_bulk(self):
        loop, switch, sink = rig()
        # Fill the line with bulk, then inject a data-class frame.
        for i in range(5):
            switch.receive(2, frame([1], priority=PRIORITY_BULK, label=f"bulk{i}"))
        switch.receive(2, frame([1], priority=PRIORITY_DATA, label="urgent"))
        loop.run()
        labels = [p.payload.data for _t, p in sink.packets]
        # bulk0 was already on the wire; urgent beats the queued rest.
        assert labels.index("urgent") == 1

    def test_notifications_are_control_class(self):
        loop, switch, sink = rig()
        for i in range(5):
            switch.receive(2, frame([1], label=f"data{i}"))
        note = Packet(
            src="S", ethertype=ETHERTYPE_NOTIFY,
            payload=PortStateNotification("S", 3, False, 1),
            payload_bytes=20, ttl=2,
        )
        switch.receive(3, note)
        loop.run()
        kinds = [
            "notify" if p.ethertype == ETHERTYPE_NOTIFY else "data"
            for _t, p in sink.packets
        ]
        # The notification overtakes every queued data frame.
        assert kinds.index("notify") <= 1

    def test_classify(self):
        assert QosSwitch.classify(frame([1])) == PRIORITY_DATA
        assert QosSwitch.classify(frame([1], priority=PRIORITY_BULK)) == PRIORITY_BULK
        note = Packet(src="s", ethertype=ETHERTYPE_NOTIFY)
        assert QosSwitch.classify(note) == PRIORITY_CONTROL


class TestQueueLimits:
    def test_tail_drop_newcomer_of_worst_class(self):
        loop, switch, sink = rig()
        switch.queue_frames = 3
        for i in range(8):
            switch.receive(2, frame([1], priority=PRIORITY_BULK, label=i))
        loop.run()
        assert switch.frames_dropped_qos > 0
        assert len(sink.packets) < 8

    def test_better_class_evicts_worse(self):
        loop, switch, sink = rig()
        switch.queue_frames = 2
        # Two bulk queued behind one in flight, then a data frame.
        for i in range(3):
            switch.receive(2, frame([1], priority=PRIORITY_BULK, label=f"b{i}"))
        switch.receive(2, frame([1], priority=PRIORITY_DATA, label="keep"))
        loop.run()
        labels = [p.payload.data for _t, p in sink.packets]
        assert "keep" in labels
        assert switch.frames_dropped_qos == 1

    def test_forwarding_semantics_preserved(self):
        """QoS must not alter tag consumption."""
        loop, switch, sink = rig()
        for i in range(3):
            switch.receive(2, frame([1, 9], label=i))
        loop.run()
        assert all(p.tags.remaining == (9,) for _t, p in sink.packets)


class TestNotificationUnderIncast:
    """Stage-1 news must cross a congested egress to show what priority
    buys: the victim host's own downlink, which no flood copy can route
    around (the ``bench_ablation_qos`` scenario)."""

    @staticmethod
    def worst_news(switch_cls):
        from repro.core.fabric import DumbNetFabric
        from repro.netsim import LinkSpec
        from repro.topology import paper_testbed

        spec = LinkSpec(bandwidth_bps=100e6, latency_s=5e-6)
        fabric = DumbNetFabric(
            paper_testbed(), controller_host="h0_0", seed=6,
            link_spec=spec, switch_cls=switch_cls,
        )
        fabric.adopt_blueprint()
        pairs = [(f"h{1 + i % 4}_{i // 4}", "h0_1") for i in range(5)]
        fabric.warm_paths(pairs)
        for src, dst in pairs:
            for i in range(100):
                fabric.loop.schedule(
                    0.0, fabric.agents[src].send_app, dst, i, 1450, (src, dst)
                )
        fabric.tracer.clear()
        fail_at = fabric.now + 0.02
        fabric.loop.schedule(0.02, fabric.fail_link, "leaf4", 1, "spine0", 5)
        fabric.run_until_idle()
        news = fabric.tracer.first_time_per_node("news-received")
        worst = max(news, key=news.get)
        return worst, news[worst] - fail_at

    def test_fifo_news_waits_behind_the_victim_downlink(self):
        from repro.core.switch import DumbSwitch

        host, delay = self.worst_news(DumbSwitch)
        assert host == "h0_1"
        assert delay > 5e-3

    def test_priority_news_overtakes_it(self):
        _host, delay = self.worst_news(QosSwitch)
        assert delay < 1e-3
