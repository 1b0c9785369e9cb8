"""Tests for path graphs (Algorithm 1)."""

import random

import pytest

import reference_graph as ref
from repro.core.pathgraph import PathGraph, build_path_graph, detour_vertices
from repro.topology import Topology, cube, fat_tree, leaf_spine, line, ring
from repro.topology.graph import switches_in


def theta():
    """A "theta" shape where one edge, A-B, is a mandatory bridge."""
    topo = Topology()
    for sw in "ABCDE":
        topo.add_switch(sw, 8)
    topo.add_link("A", 1, "B", 1)  # bridge edge
    topo.add_link("B", 2, "C", 1)
    topo.add_link("B", 3, "D", 1)
    topo.add_link("C", 2, "E", 1)
    topo.add_link("D", 2, "E", 2)
    return topo


def connected_within(nodes, edges, start):
    """Reachable subset of ``nodes`` via ``edges`` from ``start``."""
    adj = {}
    for a, _pa, b, _pb in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nbr in adj.get(node, ()):
            if nbr in seen or nbr not in nodes:
                continue
            seen.add(nbr)
            stack.append(nbr)
    return seen


class TestBuildPathGraph:
    def test_contains_primary_and_endpoints(self):
        topo = cube([4, 4], num_ports=16)
        graph = build_path_graph(topo, "c0_0", "c3_3", s=2, epsilon=1)
        assert graph is not None
        assert graph.primary[0] == "c0_0" and graph.primary[-1] == "c3_3"
        assert set(graph.primary) <= graph.nodes

    def test_backup_avoids_primary_links(self):
        topo = ring(8)
        graph = build_path_graph(topo, "R0", "R4", s=1, epsilon=0)
        assert graph.backup is not None
        # On a ring the two paths are fully node-disjoint inside.
        shared = set(graph.primary[1:-1]) & set(graph.backup[1:-1])
        assert not shared

    def test_backup_none_when_no_redundancy(self):
        topo = line(5)
        graph = build_path_graph(topo, "L0", "L4")
        assert graph.backup is None

    def test_backup_reuses_only_when_unavoidable(self):
        graph = build_path_graph(theta(), "A", "E")
        assert graph.backup is not None
        # Both must cross the A-B bridge, but diverge afterwards.
        assert graph.backup[:2] == ("A", "B")
        assert graph.backup != graph.primary

    def test_subgraph_is_connected(self):
        topo = cube([4, 4, 4], num_ports=16)
        rng = random.Random(1)
        for _ in range(10):
            src, dst = rng.sample(topo.switches, 2)
            graph = build_path_graph(topo, src, dst, s=2, epsilon=2, rng=rng)
            reachable = connected_within(graph.nodes, graph.edges, src)
            assert graph.nodes <= reachable | {src}

    def test_unreachable_returns_none(self):
        topo = Topology()
        topo.add_switch("X", 4)
        topo.add_switch("Y", 4)
        assert build_path_graph(topo, "X", "Y") is None

    def test_same_switch(self):
        topo = line(3)
        graph = build_path_graph(topo, "L1", "L1")
        assert graph is not None
        assert graph.primary == ("L1",)

    def test_edges_are_real(self):
        topo = fat_tree(4)
        graph = build_path_graph(topo, "edge0_0", "edge2_1", s=2, epsilon=1)
        for sw_a, port_a, sw_b, port_b in graph.edges:
            assert topo.has_link(sw_a, port_a, sw_b, port_b)

    def test_size_metric(self):
        topo = ring(6)
        graph = build_path_graph(topo, "R0", "R3")
        assert graph.size == len(graph.nodes)
        assert graph.num_edges == len(graph.edges)


class TestDetourVertices:
    def test_every_detour_vertex_is_epsilon_good(self):
        """Every included vertex x satisfies dist(a,x)+dist(x,b) <= s+eps
        for some window (a, b) of the primary path."""
        topo = cube([5, 5], num_ports=16)
        primary = topo.shortest_switch_path("c0_0", "c0_4")
        s, eps = 2, 1
        detours = detour_vertices(topo, primary, s, eps)
        windows = []
        step = max(1, s // 2)
        i = 0
        while i < len(primary) - 1:
            a = primary[i]
            b = primary[min(i + s, len(primary) - 1)]
            windows.append((topo.switch_distances(a), topo.switch_distances(b)))
            i += step
        for x in detours:
            assert any(
                da.get(x, 99) + db.get(x, 99) <= s + eps for da, db in windows
            ), f"{x} is not within any window budget"

    def test_epsilon_monotone(self):
        """Figure 12: larger epsilon never shrinks the path graph."""
        topo = cube([6, 6], num_ports=16)
        primary = topo.shortest_switch_path("c0_0", "c5_5")
        sizes = [
            len(detour_vertices(topo, primary, 2, eps)) for eps in (0, 1, 2, 3)
        ]
        assert sizes == sorted(sizes)

    def test_primary_included(self):
        topo = ring(8)
        primary = topo.shortest_switch_path("R0", "R3")
        detours = detour_vertices(topo, primary, 2, 0)
        assert set(primary) <= detours

    def test_bad_parameters(self):
        topo = ring(4)
        primary = topo.shortest_switch_path("R0", "R2")
        with pytest.raises(ValueError):
            detour_vertices(topo, primary, 0, 1)
        with pytest.raises(ValueError):
            detour_vertices(topo, primary, 2, -1)

    def test_large_parameters_cover_topology(self):
        """Section 4.3: when s and epsilon grow, the path graph covers
        the whole network (the ECMP degenerate case)."""
        topo = cube([3, 3], num_ports=16)
        primary = topo.shortest_switch_path("c0_0", "c2_2")
        detours = detour_vertices(topo, primary, 6, 6)
        assert detours == set(topo.switches)


#: (topology, src, dst, s, epsilon) as the tests above build them.
FIXTURES = [
    (lambda: cube([4, 4], num_ports=16), "c0_0", "c3_3", 2, 1),
    (lambda: ring(8), "R0", "R4", 1, 0),
    (lambda: line(5), "L0", "L4", 2, 1),
    (theta, "A", "E", 2, 1),
    (lambda: cube([4, 4, 4], num_ports=16), "c0_0_0", "c3_2_1", 2, 2),
    (lambda: line(3), "L1", "L1", 2, 1),
    (lambda: fat_tree(4), "edge0_0", "edge2_1", 2, 1),
    (lambda: ring(6), "R0", "R3", 2, 1),
]


class TestMask:
    """A path graph holds its switches as one int of switch bits."""

    def test_no_instance_dict(self):
        graph = build_path_graph(ring(6), "R0", "R3")
        assert not hasattr(graph, "__dict__")
        assert "mask" in PathGraph.__slots__

    @pytest.mark.parametrize("make, src, dst, s, eps", FIXTURES)
    def test_nodes_decode_the_mask(self, make, src, dst, s, eps):
        graph = build_path_graph(make(), src, dst, s, eps, rng=random.Random(3))
        assert graph.nodes == switches_in(graph.mask)
        assert graph.size == len(graph.nodes) == bin(graph.mask).count("1")

    @pytest.mark.parametrize("make, src, dst, s, eps", FIXTURES)
    def test_nodes_are_the_seed_node_set(self, make, src, dst, s, eps):
        """The switches are primary + backup + the seed's detour scan
        over whole distance maps, built as a set without switch bits."""
        topo = make()
        graph = build_path_graph(topo, src, dst, s, eps, rng=random.Random(3))
        want = set(graph.primary) | set(graph.backup or ())
        if len(graph.primary) > 1:
            want |= ref.detour_vertices(
                topo, graph.primary, s, eps,
                lambda source: ref.switch_distances(topo, source),
            )
        assert graph.nodes == want
        assert graph.size == len(want)
        assert set(graph.edges) == set(ref.links_within(topo, want))
