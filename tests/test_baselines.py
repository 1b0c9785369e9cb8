"""Baseline tests: L2/STP bridges."""

from repro.baselines import L2Host, StpBridge
from repro.baselines.stp import BLOCKING, FORWARDING
from repro.netsim import Network, Tracer
from repro.topology import line, ring


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
