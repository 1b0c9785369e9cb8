"""Control-plane scale-out: per-pod path shards + the global tier.

The contract under test (see DESIGN.md "Control-plane scale-out"):
intra-pod answers from a pod shard are byte-identical to the single
global PathService's builds; cross-pod routes stitched from per-pod
SSSP segments are valid and exactly shortest; shards fail over
independently (a planned step-down never shrinks the quorum); and the
live fabric wiring (``Controller.enable_sharding``) leaves every
host-visible behaviour unchanged.
"""

import pytest

from repro.core.controller import Controller
from repro.core.host_agent import HostAgent
from repro.core.messages import TopologyChange
from repro.core.pathservice import PathService
from repro.core.pathshard import (
    PodMap,
    ShardedPathService,
    ShardUnavailable,
    fat_tree_pod_of,
)
from repro.netsim import Network
from repro.netsim.trace import Tracer
from repro.topology.fattree import fat_tree
from repro.workloads.storm import path_query_storm

S, EPS = 2, 1
SEED = 5


def intra_pod_pairs(pod_map):
    for pod in pod_map.pods:
        members = sorted(pod_map.members(pod))
        for src in members:
            for dst in members:
                if src != dst:
                    yield pod, src, dst


class TestPodMap:
    def test_fat_tree_classifier(self):
        assert fat_tree_pod_of("agg2_1") == "2"
        assert fat_tree_pod_of("edge0_0") == "0"
        assert fat_tree_pod_of("core3") is None
        assert fat_tree_pod_of("spine0") is None

    def test_subview_is_pod_plus_core(self):
        view = fat_tree(4)
        pod_map = PodMap.from_view(view)
        assert pod_map.pods == ["0", "1", "2", "3"]
        sub = pod_map.subview(view, "1")
        # Pod 1's own switches and every core switch, nothing foreign.
        assert set(sub.switches) == set(pod_map.members("1")) | set(
            pod_map.core_switches()
        )
        assert all(not sw.startswith(("agg2", "edge0")) for sw in sub.switches)
        # Only pod 1's hosts ride along.
        assert all(h.startswith("h1_") for h in sub.hosts)
        # Every subview link exists identically in the full view.
        for link in sub.links:
            assert view.has_link(
                link.a.switch, link.a.port, link.b.switch, link.b.port
            )

    def test_boundary_links_are_agg_core(self):
        view = fat_tree(4)
        pod_map = PodMap.from_view(view)
        boundary = pod_map.boundary_links(view)
        # k=4: 4 aggs x 2 core uplinks... k/2 per agg => 16 total.
        assert len(boundary) == 16
        for sw_a, _pa, sw_b, _pb in boundary:
            pods = {pod_map.pod_of(sw_a), pod_map.pod_of(sw_b)}
            assert None in pods and len(pods) == 2


class TestByteIdentity:
    def test_every_intra_pod_answer_matches_single_service(self):
        view = fat_tree(4)
        flat = PathService(capacity=512, seed=SEED)
        svc = ShardedPathService(view, seed=SEED, capacity=512)
        for _pod, src, dst in intra_pod_pairs(svc.pod_map):
            got = svc.path_graph(src, dst, S, EPS)
            want = flat.build_fresh(view, src, dst, S, EPS)
            assert got == want, (src, dst)
        # The router never spilled an intra-pod query to the global tier.
        assert svc.global_queries == 0

    def test_cross_pod_goes_to_global_tier(self):
        view = fat_tree(4)
        svc = ShardedPathService(view, seed=SEED)
        flat = PathService(capacity=512, seed=SEED)
        got = svc.path_graph("edge0_0", "edge2_1", S, EPS)
        assert got == flat.build_fresh(view, "edge0_0", "edge2_1", S, EPS)
        assert svc.global_queries == 1

    def test_pod_hint_counters(self):
        view = fat_tree(4)
        svc = ShardedPathService(view, seed=SEED)
        svc.path_graph("edge1_0", "agg1_1", S, EPS, pod_hint="1")
        svc.path_graph("edge1_0", "edge1_1", S, EPS, pod_hint="3")
        assert svc.hint_hits == 1
        assert svc.hint_misses == 1


class TestCrossPodStitching:
    def test_stitched_routes_are_valid_and_shortest(self):
        view = fat_tree(4)
        svc = ShardedPathService(view, seed=SEED)
        flat = PathService(capacity=512, seed=SEED)
        samples = [
            ("edge0_0", "edge1_1"),
            ("edge2_0", "agg3_1"),
            ("agg0_1", "edge3_0"),
        ]
        for src, dst in samples:
            route = svc.cross_pod_route(src, dst)
            assert route is not None and route[0] == src and route[-1] == dst
            # Every hop is a live link in the FULL view.
            for a, b in zip(route, route[1:]):
                assert view.links_between(a, b), (a, b)
            assert len(set(route)) == len(route)
            # Exactly as short as the global answer.
            want = flat.shortest_path(view, src, dst)
            assert len(route) == len(want), (src, dst)
        assert svc.stitched_routes == len(samples)
        assert svc.stitch_fallbacks == 0

    def test_stitch_cache(self):
        svc = ShardedPathService(fat_tree(4), seed=SEED)
        first = svc.cross_pod_route("edge0_0", "edge1_0")
        again = svc.cross_pod_route("edge0_0", "edge1_0")
        assert first == again
        assert svc.stitched_routes == 1  # second hit came from the cache

    def test_cross_pod_tags_reach_hosts(self):
        view = fat_tree(4, hosts_per_edge=1)
        svc = ShardedPathService(view, seed=SEED)
        tags = svc.cross_pod_tags("h0_0_0", "h3_1_0")
        assert tags is not None and len(tags) > 0


class TestShardFailover:
    def test_planned_then_crash_on_same_shard(self):
        svc = ShardedPathService(fat_tree(4), seed=SEED, n_replicas=3)
        shard = svc.shards["2"]
        first = shard.primary
        stepped = shard.failover()
        assert stepped is not None and stepped != first
        # The step-down kept all three quorum nodes alive ...
        assert shard.alive_replicas() == 3
        # ... so a real crash right after still finds a majority.
        crashed = shard.fail_primary()
        assert crashed is not None
        assert shard.alive_replicas() == 2
        # And the shard still answers, byte-identically.
        flat = PathService(capacity=512, seed=SEED)
        got = shard.path_graph("edge2_0", "edge2_1", S, EPS)
        assert got == flat.build_fresh(svc.view, "edge2_0", "edge2_1", S, EPS)

    def test_failover_is_per_shard(self):
        svc = ShardedPathService(fat_tree(4), seed=SEED)
        leaders = {pod: svc.shards[pod].primary for pod in svc.shards}
        svc.shards["0"].fail_primary()
        for pod in ("1", "2", "3"):
            assert svc.shards[pod].primary == leaders[pod]
            assert svc.shards[pod].alive_replicas() == 3

    def test_dead_shard_falls_back_to_global(self):
        svc = ShardedPathService(fat_tree(4), seed=SEED, n_replicas=3)
        shard = svc.shards["1"]
        # Kill the whole quorum: the shard can no longer serve.
        for node in shard.store.cluster.nodes.values():
            node.crash()
        shard.store.cluster.leader = None
        with pytest.raises(ShardUnavailable):
            _ = shard.view
        # The router detects it and answers from the global tier.
        graph = svc.path_graph("edge1_0", "edge1_1", S, EPS)
        assert graph is not None
        assert svc.global_queries == 1


class TestTopologyChanges:
    def test_intra_pod_link_down_reaches_all_replicas(self):
        view = fat_tree(4)
        svc = ShardedPathService(view, seed=SEED)
        link = view.links_between("edge1_0", "agg1_0")[0]
        args = (link.a.switch, link.a.port, link.b.switch, link.b.port)
        view.remove_link(*args)  # the controller mutates its view first
        svc.note_topology_change("link-down", args)
        shard = svc.shards["1"]
        for name in shard.replica_names:
            assert not shard.store.view_of(name).has_link(*args)
        # Other pods' subviews never contained it: untouched, no drops.
        assert svc.shards["0"].changes_applied == 0
        assert sum(
            s.store.total_drops() for s in svc.shards.values()
        ) == 0

    def test_pod_core_boundary_link_down(self):
        view = fat_tree(4)
        svc = ShardedPathService(view, seed=SEED)
        link = view.links_between("agg2_0", "core0")[0]
        args = (link.a.switch, link.a.port, link.b.switch, link.b.port)
        view.remove_link(*args)
        svc.note_topology_change("link-down", args)
        assert not svc.shards["2"].view.has_link(*args)
        assert svc.shards["2"].store.total_drops() == 0

    def test_host_join_lands_on_its_pod_shard(self):
        view = fat_tree(4, hosts_per_edge=1)
        svc = ShardedPathService(view, seed=SEED)
        # A free port on pod 3's edge switch (hosts_per_edge=1 leaves
        # spare host-side ports).
        port = next(
            p
            for p in range(1, view.num_ports("edge3_0") + 1)
            if view.peer("edge3_0", p) is None
        )
        view.add_host("newvm", "edge3_0", port)
        svc.note_topology_change("host-up", ("newvm", "edge3_0", port))
        shard = svc.shards["3"]
        assert shard.joins == 1
        for name in shard.replica_names:
            assert shard.store.view_of(name).has_host("newvm")
        assert not svc.shards["0"].view.has_host("newvm")

    def test_replicas_converge_after_a_query_and_join_storm(self):
        view = fat_tree(4, hosts_per_edge=1)
        svc = ShardedPathService(view, seed=SEED)
        storm = path_query_storm(
            view, svc.pod_map.pod_of, duration_s=0.2,
            query_rate_per_s=2000.0, join_rate_per_s=250.0, seed=SEED,
        )
        joins = 0
        for event in storm:
            if event.kind == "query":
                assert svc.path_graph(*event.args, S, EPS) is not None
            else:
                view.add_host(*event.args)
                svc.note_topology_change("host-up", event.args)
                joins += 1
        assert joins > 0
        # Every join was a quorum commit on its pod's shard: each
        # replica ends wired like its primary, with no record dropped.
        for shard in svc.shards.values():
            for name in shard.replica_names:
                assert shard.store.view_of(name).same_wiring(shard.view)
            assert shard.store.total_drops() == 0


def build_sharded_fabric(sharded=True):
    """A live fat-tree(4) fabric whose first host is the controller."""
    topo = fat_tree(4, hosts_per_edge=1)
    agents = {}
    tracer = Tracer()

    from repro.core.switch import DumbSwitch

    def make_switch(name, ports, network):
        return DumbSwitch(name, ports, network.loop, tracer=tracer)

    def make_host(name, network):
        cls = Controller if name == "h0_0_0" else HostAgent
        agent = cls(name, network.loop, tracer=tracer)
        agents[name] = agent
        return agent

    network = Network(topo, make_switch, make_host, tracer=tracer)
    controller = agents["h0_0_0"]
    controller.adopt_view(topo.copy())
    if sharded:
        controller.enable_sharding()
    controller.announce_all()
    network.run_until_idle()
    return network, agents, controller


class TestLiveFabric:
    def test_announce_carries_pod(self):
        _network, agents, _controller = build_sharded_fabric()
        assert agents["h2_1_0"].pod == "2"
        assert agents["h0_1_0"].pod == "0"

    def test_intra_pod_query_served_by_shard(self):
        network, agents, controller = build_sharded_fabric()
        svc = controller.shard_service
        agents["h1_0_0"].send_app("h1_1_0", "intra-pod")
        network.run_until_idle()
        assert "intra-pod" in [d[2] for d in agents["h1_1_0"].delivered]
        assert svc.shards["1"].queries >= 1
        assert svc.hint_hits >= 1

    def test_cross_pod_query_served_by_global_tier(self):
        network, agents, controller = build_sharded_fabric()
        svc = controller.shard_service
        agents["h2_0_0"].send_app("h3_0_0", "cross-pod")
        network.run_until_idle()
        assert "cross-pod" in [d[2] for d in agents["h3_0_0"].delivered]
        assert svc.global_queries >= 1

    def test_path_replies_identical_with_and_without_sharding(self):
        """The scale-out must be invisible on the wire: the exact same
        tag routes land in the hosts' path tables either way."""
        flows = [("h1_0_0", "h1_1_0"), ("h0_1_0", "h3_1_0")]
        tables = []
        for sharded in (True, False):
            network, agents, _controller = build_sharded_fabric(sharded)
            for src, dst in flows:
                agents[src].send_app(dst, f"probe-{dst}")
            network.run_until_idle()
            tables.append(
                {
                    (src, dst): (
                        [p.tags for p in agents[src].path_table.entry(dst).primaries],
                        agents[src].path_table.entry(dst).backup.tags
                        if agents[src].path_table.entry(dst).backup
                        else None,
                    )
                    for src, dst in flows
                }
            )
        assert tables[0] == tables[1]

    def test_link_down_propagates_to_shard_replicas(self):
        network, agents, controller = build_sharded_fabric()
        link = controller.view.links_between("edge2_0", "agg2_1")[0]
        args = (link.a.switch, link.a.port, link.b.switch, link.b.port)
        network.fail_link(*args)
        network.run_until_idle()
        shard = controller.shard_service.shards["2"]
        for name in shard.replica_names:
            assert not shard.store.view_of(name).has_link(*args)
        assert shard.store.total_drops() == 0

    def test_report_counts_queries(self):
        network, agents, controller = build_sharded_fabric()
        agents["h1_0_0"].send_app("h1_1_0", "x")
        network.run_until_idle()
        report = controller.shard_service.report()
        row = report["shards"]["1"]
        assert row["queries"] >= 1
        assert row["alive_replicas"] == 3
        assert 0.0 <= row["hit_ratio"] <= 1.0
