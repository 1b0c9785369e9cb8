"""Observability-layer tests: metric primitives, the report protocol,
deprecation shims, the redesigned fabric construction API, and -- most
load-bearing -- that enabling observability never changes simulation
behavior."""

import hashlib
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fabric import DumbNetFabric
from repro.core.telemetry import FabricReport, StatsSwitch, TelemetryCollector
from repro.faultinject import ChaosFabric, ChaosRunner, FaultEvent, FaultSchedule
from repro.obs import (
    FabricObs,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
    to_prometheus,
)
from repro.topology import leaf_spine, paper_testbed
from repro.workloads.iperf import measure_rtts


# ----------------------------------------------------------------------
# histogram bucketing


class TestHistogram:
    def test_underflow_and_bucket_boundaries(self):
        h = Histogram("t", least=1.0, growth=2.0)
        for v in (0.0, 0.5, 1.0):  # at or below least -> underflow
            h.observe(v)
        h.observe(1.5)   # (1, 2]
        h.observe(2.0)   # (1, 2] -- exact boundary stays in the bucket
        h.observe(2.001) # (2, 4]
        buckets = dict(h.buckets())
        assert buckets[1.0] == 3
        assert buckets[2.0] == 5   # cumulative
        assert buckets[4.0] == 6
        assert h.count == 6

    def test_percentiles_within_bucket_bounds(self):
        h = Histogram("t", least=1e-9, growth=4.0)
        values = [1e-6] * 50 + [1e-3] * 45 + [0.5] * 5
        for v in values:
            h.observe(v)
        # Each quantile must land within one growth factor of the truth
        # and never outside the observed range.
        assert 1e-6 / 4 <= h.p50 <= 1e-6 * 4
        assert 1e-3 / 4 <= h.p95 <= 1e-3 * 4
        assert 0.5 / 4 <= h.p99 <= 0.5
        assert h.min == 1e-6 and h.max == 0.5

    def test_empty_and_single(self):
        h = Histogram("t")
        assert h.p50 == 0.0 and h.count == 0
        assert h.as_dict()["sum"] == 0.0
        h.observe(3.0)
        assert h.p50 == pytest.approx(3.0)
        assert h.p99 == pytest.approx(3.0)

    def test_cumulative_buckets_monotone(self):
        h = Histogram("t")
        for i in range(200):
            h.observe(1e-9 * (1.7 ** (i % 37)))
        counts = [c for _le, c in h.buckets()]
        assert counts == sorted(counts)
        assert counts[-1] == h.count

    def test_as_dict_shape(self):
        h = Histogram("t")
        h.observe(2e-6)
        d = h.as_dict()
        assert d["type"] == "histogram"
        assert set(d) == {"type", "count", "sum", "min", "max", "mean",
                          "p50", "p95", "p99"}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Histogram("t", least=0.0)
        with pytest.raises(ValueError):
            Histogram("t", growth=1.0)
        with pytest.raises(ValueError):
            Histogram("t").percentile(1.5)


# ----------------------------------------------------------------------
# spans + registry


class TestSpans:
    def test_nested_spans_accumulate_per_path(self):
        clock = [0.0]
        reg = MetricsRegistry(clock=lambda: clock[0])
        with reg.span("outer"):
            clock[0] = 1.0
            with reg.span("inner"):
                clock[0] = 3.0
            clock[0] = 4.0
        outer = reg.get("span.outer.s")
        inner = reg.get("span.outer/inner.s")
        assert outer.count == 1 and outer.total == pytest.approx(4.0)
        assert inner.count == 1 and inner.total == pytest.approx(2.0)
        # Stack unwound: a fresh span is top-level again.
        with reg.span("outer"):
            clock[0] = 5.0
        assert reg.get("span.outer.s").count == 2

    def test_span_records_on_exception_and_restores_stack(self):
        clock = [0.0]
        reg = MetricsRegistry(clock=lambda: clock[0])
        with pytest.raises(RuntimeError):
            with reg.span("boom"):
                clock[0] = 2.0
                raise RuntimeError("x")
        assert reg.get("span.boom.s").count == 1
        assert reg._span_stack == []

    def test_span_name_may_not_contain_separator(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.span("a/b")


# ----------------------------------------------------------------------
# exporters


class TestExport:
    def test_prometheus_roundtrip(self):
        h = Histogram("lat", least=1e-9, growth=4.0)
        for v in (1e-6, 2e-6, 1e-3):
            h.observe(v)
        text = to_prometheus(
            [("up_total", (("host", "h1"),), 3.0, "counter")],
            [("lat_seconds", (("host", "h1"),), h)],
        )
        counts = parse_prometheus(text)
        assert counts["up_total"] == 1
        assert counts["lat_seconds_count"] == 1
        assert counts["lat_seconds_bucket"] >= 2
        assert "# TYPE lat_seconds histogram" in text

    @pytest.mark.parametrize("bad", [
        "metric name with spaces 1.0",
        "ok{unclosed 1.0",
        "ok not-a-number",
        "# TYPE x weird",
        'ok{l="v",} 1.0',
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus(bad + "\n")

    def test_parse_checks_histogram_count_consistency(self):
        text = (
            'h_bucket{le="+Inf"} 5\n'
            "h_count 4\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus(text)


# ----------------------------------------------------------------------
# the one report protocol


class TestReportProtocol:
    def test_fabric_report_speaks_protocol(self):
        report = FabricReport(path_service={"hits": 3})
        assert json.loads(report.to_json())["path_service"] == {"hits": 3}
        assert json.loads(report.to_json())["kind"] == "fabric-report"


# ----------------------------------------------------------------------
# fabric construction API


class TestFabricConstructionAPI:
    def test_optional_tail_is_keyword_only(self):
        with pytest.raises(TypeError):
            DumbNetFabric(leaf_spine(2, 2, 2, num_ports=16), "h0_0", 7)

    def test_from_topology_blueprint_and_warm(self):
        fabric = DumbNetFabric.from_topology(
            leaf_spine(2, 2, 2, num_ports=16),
            bootstrap="blueprint",
            warm=True,
            controller_host="h0_0",
            seed=5,
        )
        assert fabric.controller.view is not None
        assert fabric.agents["h0_1"].path_table.size_paths > 0

    def test_from_topology_rejects_bad_modes(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        with pytest.raises(ValueError):
            DumbNetFabric.from_topology(topo, bootstrap="magic")
        with pytest.raises(ValueError):
            DumbNetFabric.from_topology(topo, bootstrap=None, warm=True)

    def test_fail_link_accepts_every_edge_form(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        fabric = DumbNetFabric.from_topology(
            topo, bootstrap="blueprint", controller_host="h0_0", seed=5
        )
        link = sorted(topo.links, key=lambda l: str(l.key()))[0]
        flat = (link.a.switch, link.a.port, link.b.switch, link.b.port)
        channel = fabric.network.link_channel(*flat)
        fabric.fail_link(link)
        assert not channel.up
        fabric.restore_link(link)
        assert channel.up
        fabric.fail_link(*flat)
        assert not channel.up
        fabric.restore_link(*flat)
        assert channel.up
        with pytest.raises(TypeError):
            fabric.fail_link(link.a.switch, link.a.port)
        with pytest.raises(TypeError):
            fabric.fail_link(("just", "two", "items"))
        with pytest.raises(TypeError):
            fabric.fail_link(flat)


# ----------------------------------------------------------------------
# obs never changes behavior


def _traced_fabric(obs: bool, seed: int) -> DumbNetFabric:
    """Bootstrap + traffic + a link flap, with or without obs."""
    topo = leaf_spine(2, 2, 2, num_ports=16)
    fabric = DumbNetFabric(
        topo, controller_host="h0_0", seed=seed,
        switch_cls=StatsSwitch, obs=obs,
    )
    fabric.bootstrap()
    fabric.warm_paths([("h0_1", "h1_1"), ("h1_0", "h0_0")])
    link = sorted(topo.links, key=lambda l: str(l.key()))[0]
    fabric.fail_link(link)
    fabric.run_until_idle()
    fabric.restore_link(link)
    fabric.run_until_idle()
    if obs:
        # Snapshots mid-run must be invisible too.
        fabric.observe()
    return fabric


def _traced_digest(fabric: DumbNetFabric) -> str:
    """Digest every traced event byte for byte."""
    blob = "\n".join(
        f"{ev.time!r}|{ev.category}|{ev.node}|{ev.detail!r}"
        for ev in fabric.tracer
    )
    blob += f"|{fabric.loop.events_run}|{fabric.now!r}"
    return hashlib.sha256(blob.encode()).hexdigest()


class TestObsNeutrality:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_obs_on_off_digests_identical(self, seed):
        off, on = _traced_fabric(False, seed), _traced_fabric(True, seed)
        assert _traced_digest(off) == _traced_digest(on)
        assert list(off.tracer) == list(on.tracer)

    def test_pinned_golden_digest_survives_obs(self):
        """The exact digest TestGoldenTrace pins, with obs enabled."""
        from tests.test_fabric_and_misc import TestGoldenTrace

        fabric = DumbNetFabric(
            paper_testbed(), controller_host="h0_0", seed=1, obs=True
        )
        fabric.bootstrap()
        blob = "\n".join(
            f"{ev.time!r}|{ev.category}|{ev.node}|{ev.detail!r}"
            for ev in fabric.tracer
        )
        assert (
            hashlib.sha256(blob.encode()).hexdigest()
            == TestGoldenTrace.GOLDEN_DIGEST
        )
        assert fabric.loop.events_run == TestGoldenTrace.GOLDEN_EVENTS_RUN
        assert fabric.now == TestGoldenTrace.GOLDEN_FINAL_CLOCK

    def test_observe_works_without_obs_enabled(self):
        fabric = DumbNetFabric.from_topology(
            leaf_spine(2, 2, 2, num_ports=16),
            bootstrap="blueprint",
            controller_host="h0_0",
            seed=5,
        )
        observation = fabric.observe()
        data = observation.as_dict()
        assert data["metrics"] is None
        assert data["events"]["announced"]["seen"] > 0  # every fabric traces
        assert data["switches"]
        parse_prometheus(observation.to_prometheus())


# ----------------------------------------------------------------------
# fabric-level wiring


class TestFabricObsWiring:
    def test_hub_wires_channels_agents_and_tracer(self):
        fabric = DumbNetFabric.from_topology(
            leaf_spine(2, 2, 2, num_ports=16),
            bootstrap="blueprint",
            warm=True,
            controller_host="h0_0",
            seed=5,
            obs=True,
        )
        hub = fabric.obs
        assert isinstance(hub, FabricObs)
        assert fabric.network.obs is hub
        assert hub.link_queue_wait.count > 0 or hub.nic_queue_wait.count > 0
        assert hub.query_latency.count > 0
        assert hub.path_tags.count > 0
        observation = fabric.observe()
        decoded = json.loads(observation.to_json())
        assert decoded["metrics"]["host.path_query.latency_s"]["count"] > 0
        assert decoded["events"] == fabric.tracer.as_dict()

    def test_custom_hub_and_simulated_clock(self):
        fabric = DumbNetFabric.from_topology(
            leaf_spine(2, 2, 2, num_ports=16),
            bootstrap="blueprint",
            controller_host="h0_0",
            seed=5,
            obs=True,
        )
        hub = fabric.obs
        assert hub.registry.now() == fabric.now  # clocked by loop.now
        with hub.registry.span("settle"):
            fabric.run(until=fabric.now + 0.25)
        span = hub.registry.get("span.settle.s")
        assert span.count == 1
        assert span.total == pytest.approx(0.25)

    def test_hotplug_host_is_wired(self):
        fabric = DumbNetFabric.from_topology(
            leaf_spine(2, 2, 2, num_ports=16),
            bootstrap="blueprint",
            controller_host="h0_0",
            seed=5,
            obs=True,
        )
        agent = fabric.hotplug_host("h_new", "leaf0", 9)
        fabric.run_until_idle()
        assert agent.obs is fabric.obs
        assert fabric.network.host_channel("h_new")._obs_wait is not None

    def test_chaos_switch_join_is_wired(self):
        """A scheduled switch-join is the fabric's own hot-plug: the
        newcomer has the fabric's switch class and its cables feed the
        hub's queue-wait histogram."""
        fabric = DumbNetFabric.from_topology(
            leaf_spine(2, 2, 2, num_ports=16),
            bootstrap="blueprint",
            controller_host="h0_0",
            seed=5,
            switch_cls=StatsSwitch,
            obs=True,
        )
        links = [(1, "leaf0", 9), (2, "leaf1", 9), (3, "spine0", 9)]
        join = FaultEvent(0.01, "switch-join", ("racked0", 8, tuple(links)))
        schedule = FaultSchedule().add(join)
        ChaosRunner(ChaosFabric.wrap(fabric), schedule).install()
        fabric.run_until_idle()
        assert isinstance(fabric.network.switches["racked0"], StatsSwitch)
        for new_port, peer, peer_port in links:
            channel = fabric.network.link_channel("racked0", new_port, peer, peer_port)
            assert channel._obs_wait is fabric.obs.link_queue_wait
            assert channel.frames_delivered > 0
        assert [ev.node for ev in fabric.tracer.last("fault-applied")] == ["switch-join"]


# ----------------------------------------------------------------------
# the event record


class TestEventRecord:
    def test_trace_does_not_grow_with_traffic(self):
        """Delivered packets are kept once, in ``HostAgent.delivered``:
        five pings per pair leave the same trace as one."""
        lengths, delivered = [], []
        for packets in (1, 5):
            fabric = DumbNetFabric.from_topology(
                leaf_spine(2, 2, 2, num_ports=16),
                bootstrap="blueprint",
                warm=True,
                controller_host="h0_0",
                seed=5,
            )
            measure_rtts(fabric, packets_per_pair=packets)
            lengths.append(len(list(fabric.tracer)))
            delivered.append(sum(len(a.delivered) for a in fabric.agents.values()))
        assert lengths[0] == lengths[1]
        assert delivered[1] > delivered[0]
