"""Tests for topology validation and per-link load balance."""

import pytest

from repro.flowsim import (
    FlowNet,
    FluidSimulator,
    RebalancingKPathPolicy,
    SingleShortestPolicy,
)
from repro.topology import Topology, fat_tree, leaf_spine, line, ring
from repro.topology.validation import diameter, validate_for_dumbnet


class TestDiameter:
    def test_line(self):
        assert diameter(line(5)) == 4

    def test_ring(self):
        assert diameter(ring(6)) == 3

    def test_fat_tree(self):
        assert diameter(fat_tree(4)) == 4  # edge-agg-core-agg-edge

    def test_single_switch(self):
        topo = Topology()
        topo.add_switch("S", 4)
        assert diameter(topo) == 0

    def test_disconnected_raises(self):
        topo = Topology()
        topo.add_switch("A", 4)
        topo.add_switch("B", 4)
        with pytest.raises(ValueError):
            diameter(topo)


class TestValidation:
    def test_clean_fabric(self):
        report = validate_for_dumbnet(leaf_spine(2, 3, 2, num_ports=16))
        assert report.ok
        assert str(report) == "ok"

    def test_disconnected_fabric(self):
        topo = Topology()
        topo.add_switch("A", 4)
        topo.add_switch("B", 4)
        report = validate_for_dumbnet(topo)
        assert not report.ok
        assert any("disconnected" in e for e in report.errors)

    def test_bridge_warning(self):
        report = validate_for_dumbnet(line(3))
        assert report.ok
        assert any("single point of failure" in w for w in report.warnings)

    def test_excess_diameter_rejected(self):
        report = validate_for_dumbnet(line(40), max_path_tags=16)
        assert not report.ok
        assert any("tags" in e for e in report.errors)

    def test_diameter_warning_zone(self):
        report = validate_for_dumbnet(line(12), max_path_tags=16)
        assert report.ok
        assert any("half the tag budget" in w for w in report.warnings)

    def test_empty_topology(self):
        assert not validate_for_dumbnet(Topology()).ok


class TestLinkLoads:
    def _run(self, policy):
        topo = leaf_spine(2, 2, 4, num_ports=16)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, policy)
        for i in range(4):
            sim.add_flow(f"h0_{i}", f"h1_{i}", 1e9)
        sim.run(until=0.5)
        return net, sim

    @staticmethod
    def _loads(net, sim):
        """Standing rate summed per directed link the flows cross."""
        loads = {}
        for flow in sim.flows:
            for link in net.flow_links(flow) or ():
                loads[link] = loads.get(link, 0.0) + flow.rate_bps
        return loads

    def test_loads_respect_capacity(self):
        net, sim = self._run(RebalancingKPathPolicy(k=2))
        loads = self._loads(net, sim)
        assert loads
        for link, load in loads.items():
            assert load <= net.capacities[link] + 1e-6

    def test_te_balances_better_than_single_path(self):
        """The Figure 13 mechanism, measured directly: flowlet-style
        rebalancing yields a higher Jain index over spine uplinks."""
        indices = {}
        for name, policy in (
            ("single", SingleShortestPolicy()),
            ("rebalance", RebalancingKPathPolicy(k=2)),
        ):
            net, sim = self._run(policy)
            loads = self._loads(net, sim)
            uplinks = [
                loads.get(("tx", "leaf0", p), 0.0) for p in (1, 2)
            ]
            total = sum(uplinks)
            indices[name] = total * total / (len(uplinks) * sum(v * v for v in uplinks))
        assert indices["rebalance"] > indices["single"]
