"""Host agent tests: dataplane filtering, caching, queries, probes."""

import pytest

import reference_graph as ref
from repro.core.discovery import ProbeSpec
from repro.core.fabric import DumbNetFabric
from repro.core.host_agent import HostAgent
from repro.core.l3router import AddressMap, L3Datagram, SoftwareRouter
from repro.core.messages import AppData, ProbeMessage, ProbeReply
from repro.core.packet import ETHERTYPE_DUMBNET, ETHERTYPE_IPV4, Packet, PathTags
from repro.netsim import EventLoop
from repro.topology import figure1, leaf_spine
from repro.topology.graph import TopologyError


class TestReceiveFiltering:
    def test_delivers_only_fully_consumed_tags(self):
        loop = EventLoop()
        agent = HostAgent("h", loop)
        good = Packet(src="x", ethertype=ETHERTYPE_DUMBNET, tags=PathTags([]), payload=AppData("ok"))
        agent.handle_packet(1, good)
        assert agent.delivered and agent.delivered[0][2] == "ok"

    def test_drops_leftover_tags(self):
        loop = EventLoop()
        agent = HostAgent("h", loop)
        bad = Packet(src="x", ethertype=ETHERTYPE_DUMBNET, tags=PathTags([3]), payload=AppData("no"))
        agent.handle_packet(1, bad)
        assert not agent.delivered
        assert agent.dropped_invalid == 1

    def test_drops_foreign_ethertype(self):
        loop = EventLoop()
        agent = HostAgent("h", loop)
        agent.handle_packet(1, Packet(src="x", ethertype=ETHERTYPE_IPV4, payload=AppData("no")))
        assert agent.dropped_invalid == 1

    def test_app_receive_callback(self):
        loop = EventLoop()
        agent = HostAgent("h", loop)
        seen = []
        agent.app_receive = lambda src, payload, now: seen.append((src, payload))
        packet = Packet(src="x", ethertype=ETHERTYPE_DUMBNET, tags=PathTags([]), payload=AppData(42))
        agent.handle_packet(1, packet)
        assert seen == [("x", 42)]


def app_packet(src, data):
    return Packet(src=src, ethertype=ETHERTYPE_DUMBNET, tags=PathTags([]), payload=AppData(data))


class TestDeliveryContract:
    """Each delivered payload has one consumer: the receiver installed
    last, which passes on what it does not take; the default receiver
    logs it in ``delivered``."""

    def test_without_a_receiver_every_delivery_is_logged(self):
        loop = EventLoop()
        agent = HostAgent("h", loop)
        agent.handle_packet(1, app_packet("x", "a"))
        agent.handle_packet(1, app_packet("y", ("b", 2)))
        assert agent.delivered == [(0.0, "x", "a"), (0.0, "y", ("b", 2))]
        assert agent.app_delivered == 2

    def test_a_consumed_payload_is_not_logged(self):
        loop = EventLoop()
        agent = HostAgent("h", loop)
        seen = []
        agent.app_receive = lambda src, payload, now: seen.append(payload)
        agent.handle_packet(1, app_packet("x", "mine"))
        assert seen == ["mine"]
        assert agent.delivered == []
        assert agent.app_delivered == 1

    def test_a_chained_payload_is_logged_once(self):
        loop = EventLoop()
        agent = HostAgent("h", loop)
        previous, seen = agent.app_receive, []

        def receive(src, payload, now):
            if payload == "mine":
                seen.append(payload)
            else:
                previous(src, payload, now)

        agent.app_receive = receive
        agent.handle_packet(1, app_packet("x", "mine"))
        agent.handle_packet(1, app_packet("x", "other"))
        assert seen == ["mine"]
        assert agent.delivered == [(0.0, "x", "other")]

    def test_a_router_interface_chains_non_datagrams_to_the_log(self):
        loop = EventLoop()
        agent = HostAgent("r", loop)
        router = SoftwareRouter("gw", AddressMap())
        router.add_interface("10.1.", agent)
        agent.handle_packet(1, app_packet("x", "hello"))
        agent.handle_packet(1, app_packet("x", L3Datagram("10.1.0.1", "10.9.0.1", "body")))
        assert agent.delivered == [(0.0, "x", "hello")]
        assert router.dropped_no_route == 1


class TestProbing:
    def test_responds_to_foreign_probe(self, fig1_fabric):
        h1 = fig1_fabric.agents["H1"]
        # H3 probes H1: route S3 out 1 (to S1) then port 5; reply 1-5...
        h3 = fig1_fabric.agents["H3"]
        nonce = h3.send_probe(ProbeSpec(tags=(1, 5), reply_tags=(1, 5)))
        fig1_fabric.run_until_idle()
        outcome = h3.collect_probe(nonce)
        assert outcome is not None and outcome.kind == "host"
        assert outcome.host == "H1"

    def test_ignores_probe_without_reply_route(self):
        loop = EventLoop()
        agent = HostAgent("h", loop)
        probe = ProbeMessage(nonce=9, origin="other", reply_tags=())
        packet = Packet(src="other", ethertype=ETHERTYPE_DUMBNET, tags=PathTags([]), payload=probe)
        agent.handle_packet(1, packet)
        loop.run()
        assert agent.packets_sent == 0

    def test_unknown_probe_reply_ignored(self):
        loop = EventLoop()
        agent = HostAgent("h", loop)
        reply = ProbeReply(nonce=1234, host="x")
        packet = Packet(src="x", ethertype=ETHERTYPE_DUMBNET, tags=PathTags([]), payload=reply)
        agent.handle_packet(1, packet)  # must not raise
        assert agent.collect_probe(1234) is None


class TestSendPath:
    def test_cold_send_queues_then_flushes(self, fig1_fabric):
        h1 = fig1_fabric.agents["H1"]
        assert h1.send_app("H5", "first") is False  # no cached path yet
        fig1_fabric.run_until_idle()
        h5 = fig1_fabric.agents["H5"]
        assert [d[2] for d in h5.delivered] == ["first"]

    def test_warm_send_is_immediate(self, fig1_fabric):
        h1 = fig1_fabric.agents["H1"]
        h1.send_app("H5", "a")
        fig1_fabric.run_until_idle()
        assert h1.send_app("H5", "b") is True
        fig1_fabric.run_until_idle()
        h5 = fig1_fabric.agents["H5"]
        assert [d[2] for d in h5.delivered] == ["a", "b"]

    def test_send_to_unknown_host_gives_up(self, fig1_fabric):
        h1 = fig1_fabric.agents["H1"]
        h1.send_app("ghost", "x")
        fig1_fabric.run_until_idle()
        assert h1.path_table.entry("ghost") is None
        assert "ghost" not in h1._pending_sends

    def test_routing_function_override(self, fig1_fabric):
        h4 = fig1_fabric.agents["H4"]
        h4.send_app("H5", "warm")
        fig1_fabric.run_until_idle()
        entry = h4.path_table.entry("H5")
        calls = []

        def pick_last(agent, dst, flow_key):
            calls.append(dst)
            return entry.primaries[-1]

        h4.routing_function = pick_last
        h4.send_app("H5", "routed")
        fig1_fabric.run_until_idle()
        assert calls == ["H5"]

    def test_path_verifier_blocks_bad_route(self, fig1_fabric):
        h4 = fig1_fabric.agents["H4"]
        h4.send_app("H5", "warm")
        fig1_fabric.run_until_idle()
        entry = h4.path_table.entry("H5")
        h4.routing_function = lambda a, d, f: entry.primaries[0]
        h4.path_verifier = lambda path: False
        before = fig1_fabric.agents["H5"].app_delivered
        h4.send_app("H5", "blocked")
        fig1_fabric.run_until_idle()
        # The verifier rejected the app route and no default path was
        # taken through the override (falls back to the path table).
        assert h4.dropped_invalid >= 1

    def test_install_drops_only_stale_encodings(self, fig1_fabric):
        """A path the fragment cannot encode (TopologyError) is skipped;
        any other error from encoding is a bug and must surface."""
        h4 = fig1_fabric.agents["H4"]
        h4.send_app("H5", "warm")
        fig1_fabric.run_until_idle()
        entry = h4.path_table.entry("H5")

        def stale(*args):
            raise TopologyError("stale fragment")

        h4.topo_cache.encode = stale
        h4._install_paths("H5")
        assert h4.path_table.entry("H5") is entry  # nothing encodable

        def broken(*args):
            raise KeyError("bug")

        h4.topo_cache.encode = broken
        with pytest.raises(KeyError):
            h4._install_paths("H5")

    def test_request_retry_then_give_up(self):
        """With no controller reachable, path requests retry and stop."""
        topo = leaf_spine(2, 2, 2, num_ports=16)
        fabric = DumbNetFabric(topo, controller_host="h0_0", seed=3)
        fabric.adopt_blueprint()
        agent = fabric.agents["h1_0"]
        # Kill the controller silently: queries go nowhere.
        fabric.network.hosts["h0_0"].power_off()
        agent.send_app("h0_1", "x")
        fabric.run_until_idle()
        assert agent.path_table.entry("h0_1") is None
        assert "h0_1" not in agent._path_requests  # gave up after retries
        assert agent.path_queries_sent >= 2  # retried at least once


class TestAnnounce:
    def test_announce_sets_identity(self, fig1_fabric):
        h2 = fig1_fabric.agents["H2"]
        assert h2.controller == "C3"
        assert h2.attachment == ("S4", 5)
        assert h2.tags_to_controller is not None
        assert h2.gossip_neighbors  # overlay installed

    def test_gossip_routes_reach_their_targets(self, fig1_fabric):
        topo = fig1_fabric.topology
        for host, agent in fig1_fabric.agents.items():
            for neighbor, routes in agent.gossip_neighbors.items():
                assert routes, f"{host} -> {neighbor} has no routes"
                for tags in routes:
                    assert (
                        ref.decode_tags(topo, host, list(tags))[-1]
                        == topo.host_port(neighbor).switch
                    )
