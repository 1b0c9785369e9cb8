"""End-to-end integration scenarios across the whole stack."""

import pytest

from repro.consensus import ReplicatedTopologyStore
from repro.core.fabric import DumbNetFabric
from repro.core.flowlet import install_flowlet_routing
from repro.core.messages import TopologyChange
from repro.core.pathcache import CachedPath
from repro.topology import fat_tree, leaf_spine, paper_testbed
from repro.workloads import measure_rtts


class TestTestbedScenario:
    """The paper's 7-switch / 27-server testbed, end to end."""

    @pytest.fixture(scope="class")
    def fabric(self):
        fab = DumbNetFabric(paper_testbed(), controller_host="h0_0", seed=99)
        fab.bootstrap()
        return fab

    def test_discovery_found_everything(self, fabric):
        assert fabric.controller.view.same_wiring(fabric.topology)

    def test_all_pairs_connectivity(self, fabric):
        hosts = fabric.topology.hosts
        pairs = list(zip(hosts, hosts[1:] + hosts[:1]))  # a derangement
        for src, dst in pairs:
            fabric.agents[src].send_app(dst, ("conn", src, dst))
        fabric.run_until_idle()
        for src, dst in pairs:
            received = [d[2] for d in fabric.agents[dst].delivered]
            assert ("conn", src, dst) in received

    def test_cross_leaf_uses_spine(self, fabric):
        src = fabric.agents["h0_1"]
        src.send_app("h4_1", "x")
        fabric.run_until_idle()
        entry = src.path_table.entry("h4_1")
        for path in entry.primaries:
            assert path.switches[1].startswith("spine")

    def test_same_leaf_stays_local(self, fabric):
        src = fabric.agents["h2_0"]
        src.send_app("h2_1", "x")
        fabric.run_until_idle()
        entry = src.path_table.entry("h2_1")
        assert entry.primaries[0].switches == ("leaf2",)


class TestFailureAndRecoveryStory:
    """Inject a failure under live traffic; stage 1 reroutes, stage 2
    patches, restoration reprobes -- the full Section 4.2 lifecycle."""

    def test_full_lifecycle(self):
        fab = DumbNetFabric(paper_testbed(), controller_host="h0_0", seed=31)
        fab.adopt_blueprint()
        src, dst = fab.agents["h1_0"], fab.agents["h3_0"]
        src.send_app("h3_0", ("seq", 0))
        fab.run_until_idle()

        # Cut the spine link the bound flow is using.
        entry = src.path_table.entry("h3_0")
        bound = entry.primaries[0]
        leaf_port = bound.tags[0]
        peer = fab.topology.peer("leaf1", leaf_port)
        fab.fail_link("leaf1", leaf_port, peer.switch, peer.port)
        fab.run_until_idle()

        # Traffic continues on the other spine, no controller query.
        queries = src.path_queries_sent
        for i in range(1, 4):
            src.send_app("h3_0", ("seq", i))
        fab.run_until_idle()
        got = [d[2] for d in dst.delivered if isinstance(d[2], tuple)]
        assert {("seq", i) for i in range(4)} <= set(got)
        assert src.path_queries_sent == queries

        # Stage 2 fixed the controller view.
        assert not fab.controller.view.has_link(
            "leaf1", leaf_port, peer.switch, peer.port
        )

        # Restore; the reprobe puts the link back and hosts can use it.
        fab.restore_link("leaf1", leaf_port, peer.switch, peer.port)
        fab.run_until_idle()
        assert fab.controller.view.has_link(
            "leaf1", leaf_port, peer.switch, peer.port
        )


class TestEcmpDegenerateEquivalence:
    """Section 4.3: with the full topology cached, DumbNet's host
    routing and classic ECMP see exactly the same path set."""

    def test_same_path_sets(self):
        topo = fat_tree(4)
        fab = DumbNetFabric(topo, controller_host="h0_0_0", seed=8)
        fab.adopt_blueprint()
        agent = fab.agents["h0_0_0"]
        agent.send_app("h2_0_0", "x")
        fab.run_until_idle()
        # DumbNet's cached shortest paths between the two edges.
        cached = agent.topo_cache.fragment.k_shortest_switch_paths("edge0_0", "edge2_0", 16)
        cached_shortest = {
            tuple(p) for p in cached if len(p) == len(cached[0])
        }
        # ECMP's set: every shortest switch path on the full topology.
        every = topo.k_shortest_switch_paths("edge0_0", "edge2_0", 64)
        ecmp_paths = {tuple(p) for p in every if len(p) == len(every[0])}
        # The cached fragment may hold a subset (path graph scope), but
        # everything it holds must be a true ECMP path.
        assert cached_shortest <= ecmp_paths
        assert len(cached_shortest) >= 2


class TestControllerReplication:
    """Controller replica failover with the quorum store wired in."""

    def test_failover_preserves_every_exposed_change(self):
        fab = DumbNetFabric(paper_testbed(), controller_host="h0_0", seed=5)
        fab.adopt_blueprint()
        store = ReplicatedTopologyStore(
            ["h0_0", "h1_0", "h2_0"], fab.controller.view
        )
        fab.controller.replicator = store

        fab.fail_link("leaf3", 1, "spine0", 4)
        fab.run_until_idle()
        fab.fail_link("leaf4", 2, "spine1", 5)
        fab.run_until_idle()

        promoted = store.fail_primary()
        assert promoted in ("h1_0", "h2_0")
        view = store.view_of(promoted)
        assert not view.has_link("leaf3", 1, "spine0", 4)
        assert not view.has_link("leaf4", 2, "spine1", 5)
        # The promoted view matches the dead primary's view.
        assert view.same_wiring(fab.controller.view)


class TestFlowletUnderTraffic:
    def test_flowlet_te_spreads_real_packets(self):
        topo = leaf_spine(4, 2, 4, num_ports=32)
        fab = DumbNetFabric(topo, controller_host="h0_0", seed=44)
        fab.adopt_blueprint()
        fab.warm_paths([("h0_1", "h1_1")])
        agent = fab.agents["h0_1"]
        router = install_flowlet_routing(agent, gap_s=1e-6)
        spines_seen = set()
        original = agent.send_tagged

        def spy(tags, payload, payload_bytes=0, dst=""):
            if dst == "h1_1":
                spines_seen.add(tags[0])
            return original(tags, payload, payload_bytes, dst)

        agent.send_tagged = spy
        for i in range(30):
            agent.send_app("h1_1", ("p", i), flow_key="one-big-flow")
            fab.run_until_idle()
        # One flow, many flowlets, several distinct first hops.
        assert len(spines_seen) >= 2
        assert router.flowlets_started >= 10


class TestRttTailStory:
    """Figure 10's story: warm RTTs are tight; cold starts pay the
    controller round trip and form the long tail."""

    def test_cold_tail_exists(self):
        fab = DumbNetFabric(paper_testbed(), controller_host="h0_0", seed=3)
        fab.bootstrap()
        hosts = [h for h in fab.topology.hosts if h != "h0_0"][:8]
        pairs = [(a, b) for a in hosts for b in hosts if a != b][:20]
        samples = measure_rtts(fab, pairs=pairs, packets_per_pair=10)
        warm = [s.rtt_s for s in samples if not s.cold_start]
        cold = [s.rtt_s for s in samples if s.cold_start]
        assert cold and warm
        warm_p99 = sorted(warm)[int(0.99 * (len(warm) - 1))]
        assert max(cold) > warm_p99
