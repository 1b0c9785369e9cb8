"""Hybrid-fidelity dataplane tests: ROI selection, channel shaping,
boundary consistency, failure handling, and the native fabric's lack
of an attached flow dataplane."""

from types import SimpleNamespace

import pytest

from repro.core.fabric import DumbNetFabric
from repro.flowsim import (
    FlowNet,
    FluidSimulator,
    RebalancingKPathPolicy,
    SingleShortestPolicy,
)
from repro.flowsim.simulator import Flow
from repro.hybrid import HybridEngine, PacketRegion, RegionOfInterest, build_engine
from repro.topology import leaf_spine, line


class TestRegionOfInterest:
    def test_empty_and_all(self):
        assert RegionOfInterest.empty().is_empty
        assert not RegionOfInterest.all().is_empty
        assert RegionOfInterest.all().matches_flow(object())

    def test_flow_selectors(self):
        class F:
            tag = "shuffle"
            src = "h0_0"
            dst = "h1_3"

        assert RegionOfInterest(tags=("shuffle",)).matches_flow(F())
        assert not RegionOfInterest(tags=("sort",)).matches_flow(F())
        assert RegionOfInterest.of_hosts("h1_3").matches_flow(F())
        assert RegionOfInterest.of_hosts("h0_0").matches_flow(F())
        assert not RegionOfInterest.of_hosts("h9_9").matches_flow(F())

    def test_link_selectors(self):
        route = [("htx", "h0_0"), ("tx", "leaf0", 1), ("tx", "spine0", 2)]
        assert RegionOfInterest(links=(("leaf0", 1),)).matches_links(route)
        assert RegionOfInterest(links=(("tx", "leaf0", 1),)).matches_links(route)
        assert not RegionOfInterest(links=(("leaf0", 9),)).matches_links(route)
        assert RegionOfInterest(switches=("spine0",)).matches_links(route)
        assert not RegionOfInterest(switches=("spine1",)).matches_links(route)
        assert RegionOfInterest(links=(("leaf0", 1),)).needs_route
        assert not RegionOfInterest(tags=("x",)).needs_route

    def test_union(self):
        roi = RegionOfInterest(tags=("a",)) | RegionOfInterest.of_hosts("h")
        assert roi.tags == {"a"}
        assert roi.hosts == {"h"}

    def test_bad_link_rejected(self):
        with pytest.raises(ValueError):
            RegionOfInterest(links=("leaf0",))


class TestChannelBackgroundShaping:
    """Background shaping on the region's hop (the cable model of the
    packet region; ``netsim.Channel`` no longer knows about it)."""

    LINK = ("tx", "s0", 0)

    def _send_one_frame(self, bits, background_bps=0.0, capacity=1e9):
        """One ``bits``-sized frame booked at t=0 on a zero-latency hop."""
        region = PacketRegion(
            SimpleNamespace(capacities={self.LINK: capacity}),
            latency_s=0.0, mtu_bytes=int(bits) // 8, window=1,
        )
        hop = region.hop_for(self.LINK)
        region.set_backgrounds({self.LINK: background_bps})
        flow = Flow(0, "a", "b", bits, 0.0, remaining_bits=bits)
        region.start_flow(flow, [self.LINK])
        return region, hop, flow

    def test_zero_background_identical_serialization(self):
        region, hop, flow = self._send_one_frame(1e6)
        assert hop.busy_until == 1e6 / 1e9

    def test_background_steals_bandwidth(self):
        region, hop, flow = self._send_one_frame(1e6, background_bps=5e8)
        # Residual 0.5 Gbps -> twice the serialization time.
        assert hop.busy_until == pytest.approx(2e-3)
        region.advance_to(1.0)
        assert region.frames_delivered == 1 and flow.remaining_bits == 0.0

    def test_saturated_background_never_starves(self):
        region, hop, flow = self._send_one_frame(1e3, background_bps=2e9)  # over capacity
        # Clamped to bandwidth * 1e-6, not zero or negative.
        assert hop.busy_until == pytest.approx(1e3 / (1e9 * 1e-6))


def _fig9ish(sim_cls_or_engine, roi=None, hosts=6, size=1e8, failures=()):
    topo = leaf_spine(spines=2, leaves=2, hosts_per_leaf=hosts, num_ports=64)
    net = FlowNet(topo, link_bps=10e9, host_bps=5e9)
    if isinstance(sim_cls_or_engine, str):
        sim = build_engine(
            topo, sim_cls_or_engine, roi=roi,
            policy=RebalancingKPathPolicy(k=2), net=net,
        )
    else:
        sim = sim_cls_or_engine(net, RebalancingKPathPolicy(k=2))
    for i in range(hosts):
        sim.add_flow(f"h0_{i}", f"h1_{i}", size, start_s=i * 1e-3, tag="agg")
    for time_s, action_args in failures:
        sim.at(time_s, lambda a=action_args: getattr(net, a[0])(*a[1:]))
    sim.run()
    return sim


class TestEmptyRoiExactness:
    def test_plain_run_exact(self):
        fluid = _fig9ish(FluidSimulator)
        empty = _fig9ish("hybrid", RegionOfInterest.empty())
        assert [f.finished_at for f in fluid.flows] == [
            f.finished_at for f in empty.flows
        ]
        assert fluid.recomputes == empty.recomputes
        assert fluid.epochs == empty.epochs

    def test_with_failures_exact(self):
        failures = [
            (5e-3, ("fail_link", "leaf0", 1, "spine0", 1)),
            (2e-2, ("restore_link", "leaf0", 1, "spine0", 1)),
        ]
        fluid = _fig9ish(FluidSimulator, failures=failures)
        empty = _fig9ish("hybrid", RegionOfInterest.empty(), failures=failures)
        assert [f.finished_at for f in fluid.flows] == [
            f.finished_at for f in empty.flows
        ]

    def test_build_engine_rejects_roi_for_fluid(self):
        topo = line(2)
        with pytest.raises(ValueError):
            build_engine(topo, "fluid", roi=RegionOfInterest.of_hosts("x"))
        with pytest.raises(ValueError):
            build_engine(topo, "warp")


class TestPromotion:
    def test_host_roi_promotes_only_matching_flow(self):
        sim = _fig9ish("hybrid", RegionOfInterest.of_hosts("h1_0"))
        assert sim.promoted_total == 1
        assert sim.promoted_finished == 1
        promoted = [f for f in sim.flows if f.pinned]
        assert len(promoted) == 1
        assert promoted[0].dst == "h1_0"
        assert all(f.done for f in sim.flows)

    def test_promoted_headline_matches_fluid(self):
        fluid = _fig9ish(FluidSimulator)
        hybrid = _fig9ish("hybrid", RegionOfInterest.of_hosts("h1_0"))
        assert hybrid.completion_time("agg") == pytest.approx(
            fluid.completion_time("agg"), rel=0.05
        )

    def test_promote_all_headline_matches_fluid(self):
        fluid = _fig9ish(FluidSimulator)
        all_promoted = _fig9ish("hybrid", RegionOfInterest.all())
        assert all_promoted.promoted_total == 6
        assert all_promoted.completion_time("agg") == pytest.approx(
            fluid.completion_time("agg"), rel=0.05
        )

    def test_tag_roi(self):
        sim = _fig9ish("hybrid", RegionOfInterest(tags=("agg",)))
        assert sim.promoted_total == 6

    def test_link_roi_promotes_crossing_flows(self):
        # Promote everything crossing spine0: with k=2 rebalancing the
        # flows split across both spines, so a strict subset promotes.
        sim = _fig9ish("hybrid", RegionOfInterest(switches=("spine0",)))
        assert 1 <= sim.promoted_total < 6
        assert all(f.done for f in sim.flows)

    def test_promoted_flow_survives_reroute(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = HybridEngine(
            net, RebalancingKPathPolicy(k=2),
            roi=RegionOfInterest.of_hosts("h1_0"),
        )
        flow = sim.add_flow("h0_0", "h1_0", 2e9)
        # Kill whichever uplink it is on; the other one stays alive.
        sim.at(0.5, lambda: net.fail_link("leaf0", 1, "spine0", 1))
        sim.run()
        assert flow.done
        # 2 Gb at ~1 Gbps, small epoch-boundary detection lag allowed.
        assert flow.finished_at == pytest.approx(2.0, rel=0.1)

    def test_promoted_flow_stalls_then_resumes(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = HybridEngine(
            net, RebalancingKPathPolicy(k=2),
            roi=RegionOfInterest.of_hosts("h1_0"),
        )
        flow = sim.add_flow("h0_0", "h1_0", 2e9)
        sim.at(0.5, lambda: net.fail_link("leaf0", 1, "spine0", 1))
        sim.at(0.5, lambda: net.fail_link("leaf0", 2, "spine1", 1))
        sim.at(1.5, lambda: net.restore_link("leaf0", 1, "spine0", 1))
        sim.run()
        # Stalled 0.5..1.5, so ~1 s of dead time on a ~2 s transfer.
        assert flow.done
        assert flow.finished_at == pytest.approx(3.0, rel=0.1)

    def test_fully_stalled_promoted_flow_ends_run(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = HybridEngine(
            net, RebalancingKPathPolicy(k=2),
            roi=RegionOfInterest.of_hosts("h1_0"),
        )
        flow = sim.add_flow("h0_0", "h1_0", 2e9)
        sim.at(0.5, lambda: net.fail_link("leaf0", 1, "spine0", 1))
        sim.at(0.5, lambda: net.fail_link("leaf0", 2, "spine1", 1))
        sim.run()  # must terminate, not spin
        assert not flow.done
        assert flow.stalled


class TestDegenerateParameters:
    """Values that used to hang the run (``epoch_s=0``, ``mtu_bytes=0``),
    silently lose the flow (``window=0``) or book arrivals in the past
    (negative latency) are refused at construction."""

    @pytest.mark.parametrize("kwargs", [
        {"epoch_s": 0.0},
        {"epoch_s": -1e-3},
        {"epoch_s": float("nan")},
    ])
    def test_engine_rejects(self, kwargs):
        topo = leaf_spine(spines=2, leaves=2, hosts_per_leaf=2, num_ports=64)
        with pytest.raises(ValueError):
            build_engine(topo, "hybrid", roi=RegionOfInterest.all(), **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"window": 0}, {"mtu_bytes": 0}, {"latency_s": -1e-6},
        {"latency_s": float("nan")}, {"window": -3},
    ])
    def test_region_rejects(self, kwargs):
        with pytest.raises(ValueError):
            PacketRegion(SimpleNamespace(capacities={}), **kwargs)

    def test_boundary_values_accepted(self):
        topo = leaf_spine(spines=2, leaves=2, hosts_per_leaf=2, num_ports=64)
        sim = build_engine(topo, "hybrid", roi=RegionOfInterest.all(), epoch_s=1e-4)
        sim.region = PacketRegion(sim.net, latency_s=0.0, mtu_bytes=1, window=1)
        sim.add_flow("h0_0", "h1_0", 800.0)
        sim.run()
        assert sim.report().as_dict()["flows"]["completed"] == 1


class TestBoundaryConsistency:
    def test_fluid_peer_keeps_fair_share(self):
        """A fluid flow sharing a link with a promoted flow finishes on
        its fluid schedule: the frozen packet-measured demand feeds the
        promoted flow back at its real rate, not at zero or infinity."""
        topo = line(2, hosts_per_switch=2)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = HybridEngine(
            net, SingleShortestPolicy(),
            roi=RegionOfInterest.of_hosts("hL1_0"),
        )
        promoted = sim.add_flow("hL0_0", "hL1_0", 1e9)
        fluid_peer = sim.add_flow("hL0_1", "hL1_1", 1e9)
        sim.run()
        # Fluid-only answer: both share the 1 Gbps cable, done at ~2 s.
        assert promoted.finished_at == pytest.approx(2.0, rel=0.05)
        assert fluid_peer.finished_at == pytest.approx(2.0, rel=0.05)
        # The two fidelities agreed about the promoted flow's rate.
        assert sim.consistency_max_rel_err < 0.2

    def test_hybrid_report_shape(self):
        sim = _fig9ish("hybrid", RegionOfInterest.of_hosts("h1_0"))
        report = sim.report().as_dict()
        assert report["kind"] == "hybrid-report"
        assert report["flows"]["completed"] == 6
        assert report["promoted"]["total"] == 1
        assert report["promoted"]["finished"] == 1
        assert report["packet_region"]["frames_delivered"] > 0
        assert report["boundary"]["couplings"] > 0
        assert 0 <= report["boundary"]["consistency_max_rel_err"] < 1.0
        assert report["roi"]["hosts"] == ["h1_0"]




class TestFabricIntegration:
    """Flow-level fidelity is a ``build_engine`` / ``run_scenario``
    engine: the fabric is the native emulation, with no attached flow
    dataplane and no option to ask for one."""

    def _topo(self):
        return leaf_spine(2, 2, 2, num_ports=16)

    def test_packet_engine_is_default_and_bare(self):
        fabric = DumbNetFabric.from_topology(self._topo(), bootstrap=None)
        assert not hasattr(fabric, "engine")
        assert not hasattr(fabric, "dataplane")

    def test_invalid_engine_combinations_rejected(self):
        topo = self._topo()
        for option in ("engine", "roi", "flow_policy", "flow_net"):
            with pytest.raises(TypeError):
                DumbNetFabric.from_topology(
                    topo, bootstrap=None, **{option: None}
                )
        with pytest.raises(ValueError):
            build_engine(topo, "quantum")
        with pytest.raises(ValueError):
            build_engine(topo, "fluid", roi=RegionOfInterest.of_hosts("h1_0"))

    def test_observe_covers_the_fluid_engine(self):
        # What the fabric's observation used to sample from an attached
        # dataplane is the engine's own report.
        sim = build_engine(
            self._topo(), "hybrid", roi=RegionOfInterest.of_hosts("h1_0")
        )
        sim.add_flow("h0_0", "h1_0", 1e8)
        sim.add_flow("h0_1", "h1_1", 1e8)
        sim.run()
        plane = sim.report().as_dict()
        assert plane["kind"] == "hybrid-report"
        assert plane["flows"]["completed"] == 2
        assert "consistency_last_rel_err" in plane["boundary"]
        assert "consistency_max_rel_err" in plane["boundary"]

    def test_observe_without_dataplane_reports_none(self):
        fabric = DumbNetFabric.from_topology(self._topo(), bootstrap=None)
        observation = fabric.observe()
        assert "dataplane" not in observation.as_dict()
        text = observation.to_json()
        assert "fluid" not in text
        assert "hybrid" not in text
