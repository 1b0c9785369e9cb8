"""Control-plane scale-out: per-pod path shards + the global tier.

The contract under test (see DESIGN.md "Control-plane scale-out"):
intra-pod answers from a pod shard are byte-identical to the single
global PathService's builds; cross-pod queries go to the global tier;
shards fail over independently; and committed changes reach exactly
the shards whose subviews hold the touched element.
"""

import pytest

from repro.core.pathservice import PathService
from repro.core.pathshard import (
    PodMap,
    ShardedPathService,
    ShardUnavailable,
    fat_tree_pod_of,
)
from repro.topology.fattree import fat_tree
from repro.workloads.storm import path_query_storm

S, EPS = 2, 1
SEED = 5


def members(view, pod_map, pod):
    return sorted(sw for sw in view.switches if pod_map.pod_of(sw) == pod)


def alive_replicas(shard):
    return sum(1 for node in shard.store.cluster.nodes.values() if node.alive)


def intra_pod_pairs(view, pod_map):
    for pod in pod_map.pods:
        members_ = members(view, pod_map, pod)
        for src in members_:
            for dst in members_:
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
        assert set(sub.switches) == set(members(view, pod_map, "1")) | set(
            members(view, pod_map, None)
        )
        assert all(not sw.startswith(("agg2", "edge0")) for sw in sub.switches)
        # Only pod 1's hosts ride along.
        assert all(h.startswith("h1_") for h in sub.hosts)
        # Every subview link exists identically in the full view.
        for link in sub.links:
            assert view.has_link(
                link.a.switch, link.a.port, link.b.switch, link.b.port
            )


class TestByteIdentity:
    def test_every_intra_pod_answer_matches_single_service(self):
        view = fat_tree(4)
        flat = PathService(capacity=512, seed=SEED)
        svc = ShardedPathService(view, seed=SEED, capacity=512)
        for _pod, src, dst in intra_pod_pairs(view, svc.pod_map):
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


class TestShardFailover:
    def test_planned_then_crash_on_same_shard(self):
        svc = ShardedPathService(fat_tree(4), seed=SEED, n_replicas=3)
        shard = svc.shards["2"]
        first = shard.primary
        stepped = shard.store.step_down()
        assert stepped is not None and stepped != first
        # The step-down kept all three quorum nodes alive ...
        assert alive_replicas(shard) == 3
        # ... so a real crash right after still finds a majority.
        crashed = shard.fail_primary()
        assert crashed is not None
        assert alive_replicas(shard) == 2
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
            assert alive_replicas(svc.shards[pod]) == 3

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
        assert shard.changes_applied == 1
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
