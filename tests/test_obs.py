"""Observability-layer tests: the histogram, the report protocol, the
fabric construction API, what one ``observe()`` snapshot samples, and
-- most load-bearing -- that enabling observability or taking a
snapshot never changes simulation behavior."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fabric import DumbNetFabric
from repro.core.telemetry import FabricReport, StatsSwitch, TelemetryCollector
from repro.faultinject import ChaosRunner, FaultEvent, FaultSchedule
from repro.obs import FabricObs, Histogram, ReportBase
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
        assert h._underflow == 3
        assert h._buckets == {1: 2, 2: 1}
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
        link = min(topo.links, key=str)
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
    link = min(topo.links, key=str)
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
        assert json.loads(observation.to_json())["metrics"] is None


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
        """The hub records simulated durations: a cold path query's
        latency is read off ``loop.now``, so it fits inside the
        simulated time that passed."""
        fabric = DumbNetFabric.from_topology(
            leaf_spine(2, 2, 2, num_ports=16),
            bootstrap="blueprint",
            controller_host="h0_0",
            seed=5,
            obs=True,
        )
        hub = fabric.obs
        assert hub.query_latency.count == 0
        start = fabric.now
        assert not fabric.agents["h0_1"].send_app("h1_1", "cold")
        fabric.run(until=start + 0.25)
        assert fabric.now == pytest.approx(start + 0.25)
        assert hub.query_latency.count == 1
        assert 0.0 < hub.query_latency.max <= 0.25
        metrics = fabric.observe().as_dict()["metrics"]
        assert metrics["host.path_query.latency_s"] == hub.query_latency.as_dict()

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
        ChaosRunner(fabric, schedule).install()
        fabric.run_until_idle()
        assert isinstance(fabric.network.switches["racked0"], StatsSwitch)
        for new_port, peer, peer_port in links:
            channel = fabric.network.link_channel("racked0", new_port, peer, peer_port)
            assert channel._obs_wait is fabric.obs.link_queue_wait
            assert channel.frames_delivered > 0
        assert [ev.node for ev in fabric.tracer.last("fault-applied")] == ["switch-join"]


# ----------------------------------------------------------------------
# one snapshot of a fabric that ran traffic, a link flap and a chaos burst


@pytest.fixture(scope="module")
def chaos_observed():
    """An obs-enabled leaf-spine fabric after a link flap through the
    Edge-accepting API and a scripted chaos burst."""
    topology = leaf_spine(2, 3, 2, num_ports=16)
    fabric = DumbNetFabric.from_topology(
        topology,
        bootstrap="blueprint",
        warm=True,
        controller_host=sorted(topology.hosts)[0],
        seed=23,
        switch_cls=StatsSwitch,
        obs=True,
    )
    link = min(topology.links, key=str)
    fabric.fail_link(link)
    fabric.run_until_idle()
    fabric.restore_link(link)
    fabric.run_until_idle()
    flap = (link.a.switch, link.a.port, link.b.switch, link.b.port)
    schedule = FaultSchedule().link_flap(0.01, flap, down_for=0.02)
    chaos = ChaosRunner(fabric, schedule, traffic_seed=23).run()
    return fabric, chaos


class TestSnapshot:
    def test_observe_schedules_nothing_and_leaves_the_clock(self, chaos_observed):
        fabric, _chaos = chaos_observed
        pending, clock, events_run = fabric.loop.pending, fabric.now, fabric.loop.events_run
        first = fabric.observe().to_json()
        assert fabric.loop.pending == pending
        assert fabric.now == clock
        assert fabric.loop.events_run == events_run
        assert fabric.observe().to_json() == first

    def test_json_round_trips_with_the_sim_clock(self, chaos_observed):
        fabric, _chaos = chaos_observed
        decoded = json.loads(fabric.observe().to_json())
        assert decoded["kind"] == "observation"
        assert decoded["now"] == fabric.now
        assert list(decoded["metrics"]) == sorted(decoded["metrics"])
        assert decoded["metrics"] == fabric.obs.as_dict()

    def test_every_live_histogram_is_populated(self, chaos_observed):
        hub = chaos_observed[0].obs
        assert hub.link_queue_wait.count > 0
        assert hub.nic_queue_wait.count > 0
        assert hub.query_latency.count > 0
        assert hub.path_tags.count > 0
        assert hub.reprobe_latency.count > 0

    def test_event_record_saw_the_applied_faults(self, chaos_observed):
        fabric, chaos = chaos_observed
        assert fabric.tracer.seen("fault-applied") == len(chaos.applied) == 2
        assert fabric.observe().as_dict()["events"]["fault-applied"]["seen"] == 2
        assert chaos.ok()  # no violations, every pair reconnects

    def test_switch_and_path_service_counters_are_sampled(self, chaos_observed):
        data = chaos_observed[0].observe().as_dict()
        assert data["switches"]
        assert all(row["forwarded"] > 0 for row in data["switches"].values())
        assert data["controller"]["path_service"]["misses"] > 0

    def test_every_report_speaks_the_protocol(self, chaos_observed):
        fabric, chaos = chaos_observed
        telemetry = TelemetryCollector(fabric.controller, fabric.network).collect()
        assert telemetry.rows and not telemetry.unreachable
        for report in (fabric.observe(), telemetry, chaos):
            assert isinstance(report, ReportBase)
            assert json.loads(report.to_json())
            assert isinstance(report.summary(), str)


# ----------------------------------------------------------------------
# the event record


class TestEventRecord:
    def test_trace_does_not_grow_with_traffic(self):
        """Five pings per pair leave the same trace as one, and the same
        ``HostAgent.delivered`` log: it keeps only what no installed
        receiver consumes (here the warm-up payloads), and
        ``measure_rtts`` consumes every ping and pong."""
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
        assert delivered[1] == delivered[0]
