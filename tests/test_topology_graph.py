"""Unit tests for the topology model and its graph algorithms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_graph as ref
from repro.flowsim import FlowNet
from repro.topology import (
    HostAttachment,
    Link,
    PortRef,
    Topology,
    TopologyError,
    fat_tree,
    figure1,
    line,
    ring,
)


def build_square():
    """A 4-cycle: two disjoint paths between opposite corners."""
    topo = Topology()
    for sw in "ABCD":
        topo.add_switch(sw, 8)
    topo.add_link("A", 1, "B", 1)
    topo.add_link("B", 2, "C", 1)
    topo.add_link("C", 2, "D", 1)
    topo.add_link("D", 2, "A", 2)
    topo.add_host("hA", "A", 5)
    topo.add_host("hC", "C", 5)
    return topo


class TestConstruction:
    def test_counts(self):
        topo = build_square()
        assert len(topo.switches) == 4
        assert len(topo.links) == 4
        assert topo.hosts == ["hA", "hC"]

    def test_duplicate_switch_rejected(self):
        topo = Topology()
        topo.add_switch("S", 4)
        with pytest.raises(TopologyError):
            topo.add_switch("S", 4)

    def test_port_range_enforced(self):
        topo = Topology()
        topo.add_switch("S", 4)
        with pytest.raises(TopologyError):
            topo.add_host("h", "S", 5)
        with pytest.raises(TopologyError):
            topo.add_host("h", "S", 0)

    def test_port_conflict_rejected(self):
        topo = Topology()
        topo.add_switch("S", 4)
        topo.add_switch("T", 4)
        topo.add_link("S", 1, "T", 1)
        with pytest.raises(TopologyError):
            topo.add_host("h", "S", 1)
        with pytest.raises(TopologyError):
            topo.add_link("S", 1, "T", 2)

    def test_failed_add_link_claims_neither_port(self):
        topo = Topology()
        topo.add_switch("A", 4)
        topo.add_switch("B", 4)
        topo.add_host("h", "B", 2)
        with pytest.raises(TopologyError, match="port B-2 already in use"):
            topo.add_link("A", 1, "B", 2)
        assert topo.peer("A", 1) is None
        assert not topo.links
        topo.add_link("A", 1, "B", 3)
        assert topo.peer("A", 1) == PortRef("B", 3)

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_switch("S", 4)
        with pytest.raises(TopologyError):
            topo.add_link("S", 1, "S", 2)
        with pytest.raises(TopologyError):
            Link(PortRef("S", 1), PortRef("S", 1))

    def test_unknown_nodes_raise(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_host("h", "nope", 1)
        with pytest.raises(TopologyError):
            topo.num_ports("nope")
        with pytest.raises(TopologyError):
            topo.host_port("ghost")

    def test_switch_needs_a_port(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_switch("S", 0)


class TestQueries:
    def test_peer_kinds(self):
        topo = build_square()
        peer = topo.peer("A", 1)
        assert isinstance(peer, PortRef) and peer == PortRef("B", 1)
        attach = topo.peer("A", 5)
        assert isinstance(attach, HostAttachment) and attach.host == "hA"
        assert topo.peer("A", 3) is None

    def test_neighbors_and_degree(self):
        topo = build_square()
        assert topo.neighbors("A") == ["B", "D"]
        assert topo.degree("A") == 2

    def test_hosts_on(self):
        topo = build_square()
        assert topo.hosts_on("A") == ["hA"]
        assert topo.hosts_on("B") == []

    def test_links_between_parallel(self):
        topo = Topology()
        topo.add_switch("S", 8)
        topo.add_switch("T", 8)
        topo.add_link("S", 1, "T", 1)
        topo.add_link("S", 2, "T", 2)
        assert len(topo.links_between("S", "T")) == 2
        # Parallel links collapse in the neighbor list.
        assert topo.neighbors("S") == ["T"]

    def test_link_other_end(self):
        topo = build_square()
        link = topo.links_between("A", "B")[0]
        assert link.other(link.a) == link.b
        assert link.other(link.b) == link.a
        with pytest.raises(TopologyError):
            link.other(PortRef("Z", 9))


class TestMutation:
    def test_remove_link_frees_ports(self):
        topo = build_square()
        topo.remove_link("A", 1, "B", 1)
        assert topo.peer("A", 1) is None
        assert topo.peer("B", 1) is None
        assert "B" not in topo.neighbors("A")
        # The freed ports are reusable.
        topo.add_link("A", 1, "B", 1)

    def test_remove_missing_link_raises(self):
        topo = build_square()
        with pytest.raises(TopologyError):
            topo.remove_link("A", 3, "B", 3)

    def test_remove_switch_cascades(self):
        topo = build_square()
        topo.remove_switch("A")
        assert not topo.has_switch("A")
        assert not topo.has_host("hA")
        assert topo.peer("B", 1) is None
        assert topo.peer("D", 2) is None

    def test_remove_host(self):
        topo = build_square()
        topo.remove_host("hA")
        assert not topo.has_host("hA")
        assert topo.peer("A", 5) is None
        assert topo.hosts_on("A") == []

    def test_copy_is_independent(self):
        topo = build_square()
        clone = topo.copy()
        assert clone.same_wiring(topo)
        clone.remove_link("A", 1, "B", 1)
        assert not clone.same_wiring(topo)
        assert topo.has_link("A", 1, "B", 1)


class TestMemoHygiene:
    """The kernel's memos may never be observable except as speed."""

    def test_mutating_the_returned_neighbor_list_does_not_poison_the_memo(self):
        topo = build_square()
        got = topo.neighbors("A")
        got.append("Z")
        got.sort(reverse=True)
        assert topo.neighbors("A") == ["B", "D"]
        assert topo.switch_distances("A") == {"A": 0, "B": 1, "D": 1, "C": 2}

    def test_every_mutator_refreshes_the_neighbors_it_touches(self):
        topo = build_square()
        assert [topo.neighbors(sw) for sw in "ABCD"] == [
            ["B", "D"], ["A", "C"], ["B", "D"], ["A", "C"],
        ]
        topo.add_link("A", 3, "C", 3)
        assert topo.neighbors("A") == ["B", "C", "D"]
        assert topo.neighbors("C") == ["A", "B", "D"]
        topo.remove_link("A", 1, "B", 1)
        assert topo.neighbors("A") == ["C", "D"]
        assert topo.neighbors("B") == ["C"]
        topo.remove_switch("D")
        assert topo.neighbors("A") == ["C"]
        assert topo.neighbors("C") == ["A", "B"]
        assert topo.neighbors("D") == []
        # A new switch under a removed name starts clean.
        topo.add_switch("D", 8)
        assert topo.neighbors("D") == []
        topo.add_link("D", 1, "B", 4)
        assert topo.neighbors("D") == ["B"]
        assert topo.k_shortest_switch_paths("A", "D", 3) == [["A", "C", "B", "D"]]

    def test_link_key_is_cached_and_orientation_independent(self):
        link = Link(PortRef("A", 1), PortRef("B", 2))
        assert link.key() is link.key()
        flipped = Link(PortRef("B", 2), PortRef("A", 1))
        assert link.key() == flipped.key() == frozenset((link.a, link.b))
        assert link != flipped  # eq / hash still see the orientation
        assert repr(link) == "Link(a=PortRef(switch='A', port=1), b=PortRef(switch='B', port=2))"
        # slots: no per-instance dict to pay for the cached key with
        assert not hasattr(link, "__dict__")
        assert not hasattr(link.a, "__dict__")

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=10
        )
    )
    def test_k_paths_after_any_fail_restore_sequence_equal_a_fresh_flownet(
        self, steps
    ):
        topo = fat_tree(4)
        cables = sorted(
            (l.a.switch, l.a.port, l.b.switch, l.b.port) for l in topo.links
        )
        pairs = [("h0_0_0", "h3_1_1"), ("h1_0_1", "h1_1_0"), ("h2_1_1", "h0_1_0")]
        net = FlowNet(topo)
        down = set()
        for fail, pick in steps:
            cable = cables[pick % len(cables)]
            if fail:
                net.fail_link(*cable)
                down.add(cable)
            else:
                net.restore_link(*cable)
                down.discard(cable)
            fresh = FlowNet(topo)
            for cable in sorted(down):
                fresh.fail_link(*cable)
            for src, dst in pairs:
                for k in (1, 4):
                    got = net.k_paths(src, dst, k)
                    assert got == fresh.k_paths(src, dst, k)
                    got.clear()  # the caller's copy, not the memo
                    assert net.k_paths(src, dst, k) == fresh.k_paths(src, dst, k)


class TestConnectivity:
    def test_connected(self):
        assert build_square().is_connected()

    def test_disconnected(self):
        topo = build_square()
        topo.remove_link("A", 1, "B", 1)
        topo.remove_link("D", 2, "A", 2)
        assert not topo.is_connected()

    def test_empty_is_connected(self):
        assert Topology().is_connected()


class TestShortestPaths:
    def test_distances(self):
        topo = ring(6)
        dist = topo.switch_distances("R0")
        assert dist["R0"] == 0
        assert dist["R3"] == 3
        assert dist["R5"] == 1

    def test_shortest_path_endpoints(self):
        topo = build_square()
        path = topo.shortest_switch_path("A", "C")
        assert path is not None
        assert path[0] == "A" and path[-1] == "C" and len(path) == 3

    def test_shortest_path_same_node(self):
        topo = build_square()
        assert topo.shortest_switch_path("A", "A") == ["A"]

    def test_unreachable_returns_none(self):
        topo = build_square()
        topo.remove_link("A", 1, "B", 1)
        topo.remove_link("D", 2, "A", 2)
        assert topo.shortest_switch_path("A", "C") is None

    def test_randomized_tie_breaking_varies(self):
        topo = build_square()
        rng = random.Random(3)
        seen = set()
        for _ in range(50):
            path = topo.shortest_switch_path("A", "C", rng=rng)
            seen.add(tuple(path))
        # A square has exactly two shortest paths; both should appear.
        assert seen == {("A", "B", "C"), ("A", "D", "C")}

    def test_link_costs_steer_away(self):
        topo = build_square()
        link = topo.links_between("A", "B")[0]
        costs = {link.key(): 100.0}
        path = topo.shortest_switch_path("A", "C", link_costs=costs)
        assert path == ["A", "D", "C"]

    def test_k_shortest_distinct_and_ordered(self):
        topo = ring(6)
        paths = topo.k_shortest_switch_paths("R0", "R3", 4)
        assert len(paths) == 2  # clockwise and counterclockwise only
        assert len(paths[0]) <= len(paths[1])
        assert paths[0] != paths[1]
        for path in paths:
            assert path[0] == "R0" and path[-1] == "R3"
            assert len(set(path)) == len(path)  # loop-free

    def test_k_shortest_k1(self):
        topo = build_square()
        assert len(topo.k_shortest_switch_paths("A", "C", 1)) == 1

    def test_k_shortest_unreachable(self):
        topo = Topology()
        topo.add_switch("X", 2)
        topo.add_switch("Y", 2)
        assert topo.k_shortest_switch_paths("X", "Y", 3) == []


class TestEncoding:
    def test_encode_matches_ports(self):
        topo = figure1()
        tags = topo.encode_path("H4", ["S4", "S2", "S5"], "H5")
        # S4 -> S2 is S4 port 1; S2 -> S5 is S2 port 3; H5 sits on S5-5.
        assert tags == [1, 3, 5]

    def test_encode_rejects_wrong_endpoints(self):
        topo = figure1()
        with pytest.raises(TopologyError):
            topo.encode_path("H4", ["S2", "S5"], "H5")
        with pytest.raises(TopologyError):
            topo.encode_path("H4", ["S4", "S2"], "H5")

    def test_encode_rejects_nonadjacent(self):
        topo = figure1()
        with pytest.raises(TopologyError):
            topo.encode_path("H4", ["S4", "S3", "S5"], "H5")

    def test_decode_roundtrip(self):
        topo = figure1()
        tags = topo.encode_path("H4", ["S4", "S2", "S5"], "H5")
        assert ref.decode_tags(topo, "H4", tags) == ["S4", "S2", "S5"]

    def test_decode_rejects_dangling(self):
        topo = figure1()
        with pytest.raises(TopologyError):
            ref.decode_tags(topo, "H4", [1])  # ends on a switch
        with pytest.raises(TopologyError):
            ref.decode_tags(topo, "H4", [7])  # empty port

    def test_decode_rejects_extra_tags_after_host(self):
        topo = figure1()
        with pytest.raises(TopologyError):
            ref.decode_tags(topo, "H4", [1, 3, 5, 2])

    def test_line_end_to_end(self):
        topo = line(4)
        tags = topo.encode_path("hL0_0", ["L0", "L1", "L2", "L3"], "hL3_0")
        assert tags == [2, 2, 2, 3]
        assert ref.decode_tags(topo, "hL0_0", tags) == ["L0", "L1", "L2", "L3"]

    def test_parallel_cables_encode_the_first_in_wiring_order(self):
        """A bundle is crossed on its first cable, links_between(...)[0],
        whichever end of it the path leaves from."""
        topo = Topology()
        for sw in ("S", "T"):
            topo.add_switch(sw, 8)
        topo.add_link("S", 5, "T", 2)
        topo.add_link("T", 3, "S", 1)
        topo.add_host("hS", "S", 8)
        topo.add_host("hT", "T", 8)
        assert topo.encode_path("hS", ["S", "T"], "hT") == [5, 8]
        assert topo.encode_path("hT", ["T", "S"], "hS") == [2, 8]
        assert topo.encode_path("hS", ["S", "T", "S", "T"], "hT") == [5, 2, 5, 8]
