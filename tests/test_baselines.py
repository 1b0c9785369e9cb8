"""Baseline tests: L2/STP bridges, ECMP, OpenFlow switches."""

import pytest

from repro.baselines import (
    EcmpRouter,
    FlowTableSwitch,
    L2Host,
    SdnController,
    StpBridge,
    equal_cost_paths,
)
from repro.baselines.stp import BLOCKING, FORWARDING
from repro.netsim import Network, Tracer
from repro.topology import fat_tree, leaf_spine, line, paper_testbed, ring


def build_stp_network(topo, hello=0.01, max_age=0.1, forward_delay=0.05):
    tracer = Tracer()

    def make_bridge(name, ports, network):
        return StpBridge(
            name,
            ports,
            network.loop,
            hello_s=hello,
            max_age_s=max_age,
            forward_delay_s=forward_delay,
            tracer=tracer,
        )

    def make_host(name, network):
        return L2Host(name, network.loop)

    net = Network(topo, make_bridge, make_host, tracer=tracer)
    for bridge in net.switches.values():
        bridge.start()
    return net


def converge(net, seconds=1.0):
    net.run(until=net.now + seconds)


def drain(net, seconds=0.5):
    """Bounded drain: STP hello timers re-arm forever, so a full
    run-until-idle would spin on the periodic events."""
    net.run(until=net.now + seconds)


class TestStpConvergence:
    def test_single_root_elected(self):
        net = build_stp_network(ring(5))
        converge(net)
        roots = {b.root_id for b in net.switches.values()}
        assert len(roots) == 1

    def test_ring_blocks_exactly_one_port(self):
        net = build_stp_network(ring(5))
        converge(net)
        blocked = [
            (b.name, p)
            for b in net.switches.values()
            for p, state in b.port_state.items()
            if state == BLOCKING and net.topology.peer(b.name, p) is not None
        ]
        # A ring of 5 has one redundant link: exactly one side blocks.
        assert len(blocked) == 1

    def test_tree_has_no_blocked_ports(self):
        net = build_stp_network(line(4))
        converge(net)
        for bridge in net.switches.values():
            for port, state in bridge.port_state.items():
                peer = net.topology.peer(bridge.name, port)
                if peer is not None:
                    assert state == FORWARDING

    def test_end_to_end_delivery_after_convergence(self):
        net = build_stp_network(ring(4))
        converge(net)
        net.hosts["hR0_0"].send_frame("hR2_0", payload="ping")
        drain(net)
        assert any(p == "ping" for _t, _s, p in net.hosts["hR2_0"].delivered)

    def test_learning_avoids_flooding(self):
        net = build_stp_network(line(3))
        converge(net)
        a, b = net.hosts["hL0_0"], net.hosts["hL2_0"]
        a.send_frame("hL2_0", payload="first")
        drain(net)
        b.send_frame("hL0_0", payload="reply")
        drain(net)
        a.send_frame("hL2_0", payload="second")
        drain(net)
        bridge = net.switches["L1"]
        assert bridge.frames_forwarded >= 1  # learned path used

    def test_reconvergence_after_link_failure(self):
        net = build_stp_network(ring(4))
        converge(net)
        # Find the active path's link by cutting a tree link and
        # verifying traffic flows again after reconvergence.
        net.fail_link("R0", 2, "R1", 1)
        converge(net, seconds=1.0)
        net.hosts["hR0_0"].send_frame("hR1_0", payload="rerouted")
        drain(net)
        assert any(
            p == "rerouted" for _t, _s, p in net.hosts["hR1_0"].delivered
        )

    def test_reconvergence_takes_multiple_timers(self):
        """STP recovery needs max-age expiry plus 2x forward delay --
        the structural reason Figure 11(b) shows DumbNet ~5x faster."""
        net = build_stp_network(ring(4), hello=0.01, max_age=0.1, forward_delay=0.05)
        converge(net)
        t0 = net.now
        net.fail_link("R0", 2, "R1", 1)
        net.run(until=t0 + 2.0)
        rec = [
            ev for ev in net.tracer.last("stp-port-forwarding") if ev.time > t0
        ]
        assert rec, "no port ever moved to forwarding after the cut"
        recovery = max(ev.time for ev in rec) - t0
        assert recovery >= 2 * 0.05  # at least two forward delays


class TestEcmp:
    def test_equal_cost_paths_fat_tree(self):
        topo = fat_tree(4)
        paths = equal_cost_paths(topo, "edge0_0", "edge1_0")
        assert len(paths) == 4
        lengths = {len(p) for p in paths}
        assert lengths == {5}  # edge-agg-core-agg-edge

    def test_paths_are_real(self):
        topo = fat_tree(4)
        for path in equal_cost_paths(topo, "edge0_0", "edge2_1"):
            for a, b in zip(path, path[1:]):
                assert topo.links_between(a, b)

    def test_router_deterministic_per_flow(self):
        topo = leaf_spine(4, 2, 2, num_ports=32)
        router = EcmpRouter(topo)
        first = router.route("h0_0", "h1_0", flow_key=("tcp", 1234))
        for _ in range(10):
            assert router.route("h0_0", "h1_0", flow_key=("tcp", 1234)) == first

    def test_router_spreads_flows(self):
        topo = leaf_spine(4, 2, 2, num_ports=32)
        router = EcmpRouter(topo)
        chosen = {
            tuple(router.route("h0_0", "h1_0", flow_key=i)) for i in range(64)
        }
        assert len(chosen) >= 3

    def test_unreachable(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        router = EcmpRouter(topo)
        assert router.route("h0_0", "h0_0", 1) is not None  # same leaf
        assert equal_cost_paths(topo, "leaf0", "leaf0") == [["leaf0"]]

    def test_limit_respected(self):
        topo = fat_tree(6)
        paths = equal_cost_paths(topo, "edge0_0", "edge1_0", limit=5)
        assert len(paths) == 5


class TestOpenFlowBaseline:
    def _network(self, topo):
        controller_box = {}

        def make_switch(name, ports, network):
            return FlowTableSwitch(name, ports, network.loop)

        def make_host(name, network):
            return L2Host(name, network.loop)

        net = Network(topo, make_switch, make_host)
        controller = SdnController(topo, net.loop)
        for switch in net.switches.values():
            controller.register(switch)
        return net, controller

    def test_miss_install_forward(self):
        net, controller = self._network(paper_testbed())
        net.hosts["h0_0"].send_frame("h4_0", payload="x")
        net.run_until_idle()
        assert any(p == "x" for _t, _s, p in net.hosts["h4_0"].delivered)
        assert controller.packet_ins >= 1
        assert controller.total_rules >= 3  # one per path switch

    def test_second_packet_hits_table(self):
        net, controller = self._network(paper_testbed())
        net.hosts["h0_0"].send_frame("h4_0", payload="a")
        net.run_until_idle()
        ins_before = controller.packet_ins
        net.hosts["h0_0"].send_frame("h4_0", payload="b")
        net.run_until_idle()
        assert controller.packet_ins == ins_before
        assert any(p == "b" for _t, _s, p in net.hosts["h4_0"].delivered)

    def test_state_grows_with_destinations(self):
        """The scaling pain DumbNet removes: switch state grows with
        the number of communicating hosts."""
        net, controller = self._network(paper_testbed())
        targets = ["h1_0", "h2_0", "h3_0", "h4_0"]
        for dst in targets:
            net.hosts["h0_0"].send_frame(dst, payload="x")
        net.run_until_idle()
        assert controller.total_rules >= 2 * len(targets)

    def test_failure_flushes_rules_and_recovers(self):
        net, controller = self._network(paper_testbed())
        net.hosts["h0_0"].send_frame("h4_0", payload="warm")
        net.run_until_idle()
        # Cut whichever spine link leaf0's rule uses.
        leaf0 = net.switches["leaf0"]
        out_port = leaf0.table["h4_0"]
        peer = net.topology.peer("leaf0", out_port)
        net.fail_link("leaf0", out_port, peer.switch, peer.port)
        net.run_until_idle()
        assert "h4_0" not in leaf0.table
        net.hosts["h0_0"].send_frame("h4_0", payload="after")
        net.run_until_idle()
        assert any(p == "after" for _t, _s, p in net.hosts["h4_0"].delivered)

    def test_table_capacity_limit(self):
        net, _controller = self._network(paper_testbed())
        switch = net.switches["leaf0"]
        switch.table_capacity = 2
        from repro.baselines.openflow import FlowRule

        assert switch.install_rule(FlowRule("a", 1))
        assert switch.install_rule(FlowRule("b", 1))
        assert not switch.install_rule(FlowRule("c", 1))
        assert switch.drops_table_full == 1
