"""Structural tests for the topology generators."""

import pytest

from helpers import random_connected
from repro.topology import (
    Topology,
    TopologyError,
    center_switch,
    corner_switch,
    cube,
    fat_tree,
    figure1,
    jellyfish,
    leaf_spine,
    line,
    paper_testbed,
    ring,
)


class TestFatTree:
    def test_k4_counts(self):
        topo = fat_tree(4)
        # 5k^2/4 = 20 switches; (k/2)^2 = 4 cores; hosts k^3/4 = 16.
        assert len(topo.switches) == 20
        assert len(topo.hosts) == 16
        assert sum(1 for s in topo.switches if s.startswith("core")) == 4
        # Links: core-agg k*(k/2)^2 = 16, agg-edge k*(k/2)^2 = 16.
        assert len(topo.links) == 32
        assert topo.is_connected()

    def test_k4_full_bisection_paths(self):
        topo = fat_tree(4)
        # Cross-pod pairs have (k/2)^2 = 4 equal-cost paths.
        paths = topo.k_shortest_switch_paths("edge0_0", "edge1_0", 8)
        shortest = [p for p in paths if len(p) == len(paths[0])]
        assert len(shortest) == 4

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(3)

    def test_port_inflation(self):
        topo = fat_tree(4, num_ports=64)
        assert all(topo.num_ports(s) == 64 for s in topo.switches)

    def test_too_many_hosts_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(4, hosts_per_edge=3)


class TestLeafSpine:
    def test_testbed_shape(self):
        topo = paper_testbed()
        # "7 switches, 10 links, and 27 hosts" (Section 7.2.1).
        assert len(topo.switches) == 7
        assert len(topo.links) == 10
        assert len(topo.hosts) == 27
        assert topo.is_connected()

    def test_every_leaf_reaches_every_spine(self):
        topo = leaf_spine(2, 5, 5)
        for l in range(5):
            assert set(topo.neighbors(f"leaf{l}")) == {"spine0", "spine1"}

    def test_parallel_uplinks(self):
        topo = leaf_spine(2, 2, 2, uplinks_per_pair=2)
        assert len(topo.links_between("leaf0", "spine0")) == 2

    def test_port_budget_enforced(self):
        with pytest.raises(ValueError):
            leaf_spine(2, 2, 63, num_ports=64)


class TestCube:
    def test_3cube_counts(self):
        topo = cube([3, 3, 3])
        assert len(topo.switches) == 27
        # Torus: n * prod(dims) links = 3 * 27 = 81.
        assert len(topo.links) == 81
        assert topo.is_connected()

    def test_mesh_without_wraparound(self):
        topo = cube([3, 3], wraparound=False, num_ports=16)
        # Mesh links: 2 * 3 * 2 = 12.
        assert len(topo.links) == 12

    def test_side_two_has_single_link(self):
        topo = cube([2, 2], num_ports=16)
        # Wraparound on a side of 2 would duplicate; 4 links total.
        assert len(topo.links) == 4

    def test_corner_and_center(self):
        assert corner_switch([8, 8, 8]) == "c0_0_0"
        assert center_switch([8, 8, 8]) == "c4_4_4"
        topo = cube([3, 3, 3])
        assert topo.has_switch(center_switch([3, 3, 3]))

    def test_hosts_per_switch(self):
        topo = cube([2, 2], hosts_per_switch=2, num_ports=16)
        assert len(topo.hosts) == 8

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            cube([])
        with pytest.raises(ValueError):
            cube([0, 3])

    def test_port_budget(self):
        with pytest.raises(ValueError):
            cube([3, 3, 3], num_ports=6)  # needs 2*3+1


class TestRandomTopologies:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_jellyfish_connected(self, seed):
        topo = jellyfish(num_switches=12, switch_degree=3, seed=seed)
        assert topo.is_connected()
        assert len(topo.hosts) == 12

    def test_jellyfish_degree_bounded(self):
        topo = jellyfish(num_switches=16, switch_degree=4, seed=5)
        for sw in topo.switches:
            assert topo.degree(sw) <= 4

    def test_jellyfish_validation(self):
        with pytest.raises(ValueError):
            jellyfish(1, 1)
        with pytest.raises(ValueError):
            jellyfish(4, 4)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_random_connected_is_connected(self, seed):
        topo = random_connected(10, extra_links=5, seed=seed)
        assert topo.is_connected()
        assert len(topo.switches) == 10

    def test_random_connected_extra_links(self):
        tree = random_connected(10, extra_links=0, seed=1)
        dense = random_connected(10, extra_links=8, seed=1)
        assert len(dense.links) > len(tree.links)
        assert len(tree.links) == 9  # a spanning tree


class TestSamples:
    def test_figure1_wiring_matches_section41(self):
        topo = figure1()
        # The probing examples pin these links exactly.
        assert topo.has_link("S3", 1, "S1", 1)
        assert topo.has_link("S3", 2, "S2", 1)
        assert topo.has_link("S1", 2, "S4", 2)
        assert topo.has_link("S2", 2, "S4", 1)
        assert topo.host_port("C3").port == 9
        assert topo.host_port("H3").switch == "S3"
        assert topo.is_connected()

    def test_line_and_ring(self):
        assert len(line(5).links) == 4
        assert len(ring(5).links) == 5
        with pytest.raises(ValueError):
            ring(2)
        with pytest.raises(ValueError):
            line(0)
