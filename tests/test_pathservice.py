"""PathService tests: cache correctness, link-indexed eviction,
byte-identity with fresh builds, and the end-to-end controller wiring."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fabric import DumbNetFabric
from repro.core.pathgraph import build_path_graph
from repro.core.pathservice import (
    PathService,
    StablePathRng,
    stable_salt,
)
from repro.topology import cube, figure1
from repro.topology.fattree import fat_tree

S_PARAM = 2
EPSILON = 1


def switch_pairs(topo, n, seed=0):
    switches = sorted(topo.switches)
    rng = random.Random(seed)
    return [tuple(rng.sample(switches, 2)) for _ in range(n)]


class TestCacheBasics:
    def test_hit_returns_same_object(self):
        topo = figure1()
        service = PathService(seed=3)
        first = service.path_graph(topo, "S1", "S4", S_PARAM, EPSILON)
        second = service.path_graph(topo, "S1", "S4", S_PARAM, EPSILON)
        assert first is second
        assert service.stats.misses == 1
        assert service.stats.hits == 1

    def test_cached_equals_fresh_build(self):
        topo = fat_tree(4)
        service = PathService(seed=11)
        for src, dst in switch_pairs(topo, 30):
            cached = service.path_graph(topo, src, dst, S_PARAM, EPSILON)
            fresh = build_path_graph(
                topo, src, dst, s=S_PARAM, epsilon=EPSILON,
                rng=service.rng_for(src, dst, S_PARAM, EPSILON),
            )
            assert cached == fresh

    def test_tree_backed_shortest_path_matches_plain(self):
        topo = fat_tree(4)
        service = PathService(seed=0)
        for src, dst in switch_pairs(topo, 30, seed=1):
            assert service.shortest_path(topo, src, dst) == \
                topo.shortest_switch_path(src, dst)
        assert service.stats.tree_hits > 0

    def test_unknown_switch_returns_none(self):
        topo = figure1()
        service = PathService()
        assert service.shortest_path(topo, "nope", "S1") is None
        assert service.path_graph(topo, "nope", "S1", S_PARAM, EPSILON) is None

    def test_unreachable_pair_caches_none(self):
        topo = figure1()
        refs = [(l.a.switch, l.a.port, l.b.switch, l.b.port)
                for l in topo.links_of("S5")]
        for ref in refs:
            topo.remove_link(*ref)
        service = PathService()
        assert service.path_graph(topo, "S1", "S5", S_PARAM, EPSILON) is None
        assert service.path_graph(topo, "S1", "S5", S_PARAM, EPSILON) is None
        assert service.stats.hits == 1

    def test_capacity_eviction_is_lru(self):
        topo = fat_tree(4)
        service = PathService(capacity=4, seed=5)
        pairs = switch_pairs(topo, 8, seed=2)
        for src, dst in pairs[:4]:
            service.path_graph(topo, src, dst, S_PARAM, EPSILON)
        # Touch the first key so it is most-recently-used...
        service.path_graph(topo, *pairs[0], S_PARAM, EPSILON)
        # ...then push the cache over capacity by two entries: the two
        # least-recently-used keys (pairs[1], pairs[2]) must go.
        for src, dst in pairs[4:6]:
            service.path_graph(topo, src, dst, S_PARAM, EPSILON)
        assert len(service) == 4
        assert service.stats.capacity_evictions == 2
        keys = list(service._graphs)
        assert (pairs[0][0], pairs[0][1], S_PARAM, EPSILON) in keys
        assert (pairs[1][0], pairs[1][1], S_PARAM, EPSILON) not in keys
        assert (pairs[2][0], pairs[2][1], S_PARAM, EPSILON) not in keys

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PathService(capacity=0)


class TestStableRng:
    def test_choice_is_order_and_subset_insensitive(self):
        rng = StablePathRng(stable_salt(9, "A", "B", 2, 1))
        picked = rng.choice(["x", "y", "z"])
        assert rng.choice(["z", "y", "x"]) == picked
        # Dropping never-picked alternates cannot change the outcome.
        others = [c for c in ["x", "y", "z"] if c != picked]
        assert rng.choice([picked, others[0]]) == picked

    def test_different_keys_spread_choices(self):
        candidates = [f"S{i}" for i in range(12)]
        picks = {
            StablePathRng(stable_salt(0, f"H{i}", "D", 2, 1)).choice(candidates)
            for i in range(64)
        }
        assert len(picks) > 1  # load balancing across keys preserved


class TestLinkEviction:
    def test_only_touching_entries_evicted(self):
        topo = cube([4, 4, 4], hosts_per_switch=1, num_ports=8)
        service = PathService(seed=1)
        for src, dst in switch_pairs(topo, 40, seed=3):
            service.path_graph(topo, src, dst, S_PARAM, EPSILON)
        link = sorted(
            (l.a.switch, l.a.port, l.b.switch, l.b.port) for l in topo.links
        )[7]
        sw_a, port_a, sw_b, port_b = link
        orientations = {link, (sw_b, port_b, sw_a, port_a)}
        affected = {
            key for key in list(service._graphs)
            if orientations & set(service.path_graph(topo, *key).edges)
        }
        survivors = set(list(service._graphs)) - affected
        assert affected and survivors  # the test must exercise both sides
        topo.remove_link(*link)
        evicted = service.invalidate_link(topo, *link)
        assert evicted == len(affected)
        assert set(list(service._graphs)) == survivors
        assert service.stats.link_evictions == evicted

    def test_survivors_match_fresh_builds_on_patched_view(self):
        topo = cube([4, 4, 4], hosts_per_switch=1, num_ports=8)
        service = PathService(seed=2)
        pairs = switch_pairs(topo, 40, seed=4)
        for src, dst in pairs:
            service.path_graph(topo, src, dst, S_PARAM, EPSILON)
        link = sorted(
            (l.a.switch, l.a.port, l.b.switch, l.b.port) for l in topo.links
        )[19]
        topo.remove_link(*link)
        service.invalidate_link(topo, *link)
        for src, dst in pairs:
            got = service.path_graph(topo, src, dst, S_PARAM, EPSILON)
            want = build_path_graph(
                topo, src, dst, s=S_PARAM, epsilon=EPSILON,
                rng=service.rng_for(src, dst, S_PARAM, EPSILON),
            )
            assert got == want

    def test_unannounced_mutation_flushes_on_next_query(self):
        topo = figure1()
        service = PathService(seed=0)
        service.path_graph(topo, "S1", "S4", S_PARAM, EPSILON)
        # Mutate behind the service's back: no invalidate_link call.
        topo.remove_link("S2", 3, "S5", 2)
        got = service.path_graph(topo, "S1", "S5", S_PARAM, EPSILON)
        want = build_path_graph(
            topo, "S1", "S5", s=S_PARAM, epsilon=EPSILON,
            rng=service.rng_for("S1", "S5", S_PARAM, EPSILON),
        )
        assert got == want
        assert service.stats.stale_flushes == 1

    def test_a_new_view_at_a_recycled_address_is_a_new_epoch(self):
        """CPython reuses addresses: a *different* view with the same
        mutation count must not be served the previous view's cache."""

        def view_without(index):
            topo = fat_tree(4)
            link = sorted(topo.links, key=str)[index]
            topo.remove_link(
                link.a.switch, link.a.port, link.b.switch, link.b.port
            )
            return topo

        service = PathService(seed=5)
        pairs = switch_pairs(fat_tree(4), 6, seed=2)
        uids = set()
        for index in range(32):
            topo = view_without(0)
            for src, dst in pairs:
                service.path_graph(topo, src, dst, S_PARAM, EPSILON)
            uids.add(topo.uid)
            del topo
            topo = view_without(index)  # usually lands on the freed address
            uids.add(topo.uid)
            for src, dst in pairs:
                got = service.path_graph(topo, src, dst, S_PARAM, EPSILON)
                assert got == service.build_fresh(
                    topo, src, dst, S_PARAM, EPSILON
                )
                # ... and build_fresh itself did not lean on stale trees.
                assert got == build_path_graph(
                    topo, src, dst, s=S_PARAM, epsilon=EPSILON,
                    rng=service.rng_for(src, dst, S_PARAM, EPSILON),
                )
            del topo
        assert len(uids) == 64  # never reused, unlike id()
        assert fat_tree(4).copy().uid not in uids

    def test_flush_empties_everything(self):
        topo = figure1()
        service = PathService()
        service.path_graph(topo, "S1", "S4", S_PARAM, EPSILON)
        service.flush()
        assert len(service) == 0
        assert service.stats.flushes == 1
        assert not service._trees


def parallel_cube():
    """A 3x3 torus with a second cable beside every third one."""
    topo = cube([3, 3], hosts_per_switch=1, num_ports=12)

    def free(sw):
        return next(p for p in range(1, 13) if topo.peer(sw, p) is None)

    for sw_a, sw_b in sorted((l.a.switch, l.b.switch) for l in topo.links)[::3]:
        topo.add_link(sw_a, free(sw_a), sw_b, free(sw_b))
    return topo


TOPOLOGIES = {
    "cube": lambda: cube([3, 3, 3], hosts_per_switch=1, num_ports=8),
    "fat_tree": lambda: fat_tree(4, hosts_per_edge=1),
    "parallel": parallel_cube,
}


def cables(topo):
    return sorted((l.a.switch, l.a.port, l.b.switch, l.b.port) for l in topo.links)


def assert_trees_exact(service, topo):
    """Every memoised tree is the BFS of the current view, orders included."""
    for source, tree in service._trees.items():
        want = topo.sssp_tree(source)
        assert list(tree.dist.items()) == list(want.dist.items())
        assert (tree.levels, tree.masks) == (want.levels, want.masks)
        assert [tree.parents_of(sw) for sw in tree.dist] == \
            [want.parents_of(sw) for sw in want.dist]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    shape=st.sampled_from(sorted(TOPOLOGIES)),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["down", "restore-latest", "restore-older", "join"]),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=12,
    ),
    query_seed=st.integers(min_value=0, max_value=10**6),
)
def test_service_tracks_fresh_builds_through_fail_restore_sequences(
    shape, steps, query_seed
):
    """After ANY sequence of link failures, restores (of the latest or an
    older down, named from either side) and host joins, every service
    answer equals a fresh ``build_path_graph`` on the current view and
    every memoised SSSP tree equals a fresh one in order."""
    topo = TOPOLOGIES[shape]()
    service = PathService(seed=99)
    pairs = switch_pairs(topo, 8, seed=query_seed)
    free_ports = [
        (sw, port)
        for sw in sorted(topo.switches)
        for port in range(1, topo.num_ports(sw) + 1)
        if topo.peer(sw, port) is None
    ]
    removed = []
    for kind, pick in steps:
        if kind.startswith("restore") and removed:
            index = len(removed) - 1 if kind == "restore-latest" else pick % len(removed)
            sw_a, port_a, sw_b, port_b = removed.pop(index)
            link = (sw_a, port_a, sw_b, port_b) if pick % 2 else (sw_b, port_b, sw_a, port_a)
            topo.add_link(*link)
            service.note_topology_change(topo, "link-up", link)
        elif kind == "join" and free_ports:
            sw, port = free_ports.pop(pick % len(free_ports))
            host = f"joined-{sw}-{port}"
            topo.add_host(host, sw, port)
            service.note_topology_change(topo, "host-up", (host, sw, port))
        else:
            links = cables(topo)
            if not links:
                continue
            link = links[pick % len(links)]
            topo.remove_link(*link)
            service.note_topology_change(topo, "link-down", link)
            removed.append(link)
        assert_trees_exact(service, topo)
        for src, dst in pairs:
            got = service.path_graph(topo, src, dst, S_PARAM, EPSILON)
            want = build_path_graph(
                topo, src, dst, s=S_PARAM, epsilon=EPSILON,
                rng=service.rng_for(src, dst, S_PARAM, EPSILON),
            )
            assert got == want
        assert_trees_exact(service, topo)


class TestFlapUndo:
    def test_link_up_of_the_downed_cable_restores(self):
        topo = cube([4, 4, 4], hosts_per_switch=1, num_ports=8)
        service = PathService(seed=1)
        pairs = switch_pairs(topo, 40, seed=3)
        for src, dst in pairs:
            service.path_graph(topo, src, dst, S_PARAM, EPSILON)
        before = list(service._graphs)
        trees = dict(service._trees)
        link = cables(topo)[7]
        topo.remove_link(*link)
        service.note_topology_change(topo, "link-down", link)
        assert service.stats.link_evictions > 0
        assert service._trees  # the flap kept some trees
        for src, dst in pairs[:10]:
            service.path_graph(topo, src, dst, S_PARAM, EPSILON)
        topo.add_link(*link)
        service.note_topology_change(topo, "link-up", link)
        assert service.stats.restores == 1
        assert service.stats.flushes == 0
        assert set(list(service._graphs)) == set(before)
        assert service._trees == {
            source: tree for source, tree in trees.items()
            if source in service._trees
        }
        assert_trees_exact(service, topo)
        misses = service.stats.misses
        for src, dst in pairs:
            service.path_graph(topo, src, dst, S_PARAM, EPSILON)
        assert service.stats.misses == misses

    def test_any_other_link_up_flushes(self):
        topo = figure1()
        service = PathService(seed=0)
        service.path_graph(topo, "S1", "S4", S_PARAM, EPSILON)
        first, second = cables(topo)[:2]
        topo.remove_link(*first)
        service.note_topology_change(topo, "link-down", first)
        topo.remove_link(*second)
        service.note_topology_change(topo, "link-down", second)
        topo.add_link(*first)  # not the outstanding outage
        service.note_topology_change(topo, "link-up", first)
        assert service.stats.restores == 0
        assert service.stats.flushes == 1
        assert len(service) == 0


_FLAP_SCRIPT = """
import json
from repro.core.pathservice import PathService
from repro.topology.fattree import fat_tree

topo = fat_tree(4, hosts_per_edge=1)
service = PathService(capacity=12, seed=7)
switches = sorted(topo.switches)
pairs = [(a, b) for a in switches[:6] for b in switches[-6:]]
links = sorted((l.a.switch, l.a.port, l.b.switch, l.b.port) for l in topo.links)
for step in range(12):
    link = links[(7 * step) % len(links)]
    for src, dst in pairs[step::3]:
        service.path_graph(topo, src, dst, 2, 1)
    topo.remove_link(*link)
    service.note_topology_change(topo, "link-down", link)
    for src, dst in pairs[step % 2::5]:
        service.path_graph(topo, src, dst, 2, 1)
    topo.add_link(*link)
    service.note_topology_change(topo, "link-up", link)
print(json.dumps([service.stats.as_dict(), list(service._graphs)]))
"""


def test_flap_undo_is_independent_of_hash_seed():
    """Restored graphs go back in LRU order, never in set order: capacity
    evictions, counters and the cache contents match across hash seeds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _FLAP_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(json.loads(run.stdout))
    stats, _keys = outputs[0]
    assert stats["restores"] == 12
    assert stats["capacity_evictions"] > 0
    assert outputs[0] == outputs[1]


class TestControllerWiring:
    @pytest.fixture
    def fabric(self):
        fab = DumbNetFabric(figure1(), controller_host="C3", seed=5)
        fab.bootstrap()
        return fab

    def test_repeat_request_hits_cache(self, fabric):
        ctl = fabric.controller
        h1 = fabric.agents["H1"]
        h1.send_app("H2", "x")
        fabric.run_until_idle()
        misses = ctl.path_service.stats.misses
        hits = ctl.path_service.stats.hits
        assert misses >= 1
        # The same pair again, after the host forgets its cached entry.
        h1.path_table.forget("H2")
        h1.send_app("H2", "y")
        fabric.run_until_idle()
        assert ctl.path_service.stats.hits > hits
        assert ctl.path_service.stats.misses == misses

    def test_link_down_notification_invalidates(self, fabric):
        ctl = fabric.controller
        fabric.agents["H1"].send_app("H2", "x")
        fabric.run_until_idle()
        fabric.network.fail_link("S1", 2, "S4", 2)
        fabric.run_until_idle()
        assert ctl.path_service.stats.link_invalidations >= 1
        # Serving still agrees with a fresh build on the patched view.
        got = ctl.path_service.path_graph(ctl.view, "S1", "S4", 2, 1)
        want = build_path_graph(
            ctl.view, "S1", "S4", s=2, epsilon=1,
            rng=ctl.path_service.rng_for("S1", "S4", 2, 1),
        )
        assert got == want

    def test_telemetry_exports_cache_counters(self, fabric):
        from repro.core.telemetry import TelemetryCollector

        fabric.agents["H1"].send_app("H2", "x")
        fabric.run_until_idle()
        report = TelemetryCollector(
            fabric.controller, fabric.network
        ).collect()
        assert report.path_service  # populated dict
        assert report.path_service["misses"] >= 1
        assert set(report.path_service) == set(
            fabric.controller.path_service.stats.as_dict()
        )
