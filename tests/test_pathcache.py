"""Tests for TopoCache and PathTable (Section 5.2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.host_agent import HostAgent
from repro.core.messages import PathReply, TopologyChange, TopologyPatch
from repro.core.pathcache import BINDING_DEAD, CachedPath, PathTable, TopoCache
from repro.netsim import EventLoop
from repro.topology import figure1
from repro.topology.graph import _CABLES, PortRef, Topology, TopologyError


def make_reply(topo, src, dst, nonce=1, version=1):
    """A PathReply carrying the full topology as the subgraph."""
    edges = tuple(
        (l.a.switch, l.a.port, l.b.switch, l.b.port) for l in topo.links
    )
    src_ref = topo.host_port(src)
    dst_ref = topo.host_port(dst)
    return PathReply(
        nonce=nonce,
        src=src,
        dst=dst,
        found=True,
        src_attachment=(src_ref.switch, src_ref.port),
        dst_attachment=(dst_ref.switch, dst_ref.port),
        edges=edges,
        version=version,
    )


def cached(switches, tags):
    return CachedPath.from_encoding(switches, tags)


class TestTopoCache:
    def test_merge_builds_fragment(self):
        topo = figure1()
        cache = TopoCache("H4")
        cache.merge_reply(make_reply(topo, "H4", "H5"))
        assert cache.fragment.has_host("H5")
        assert cache.attachment("H4") == ("S4", 6)
        assert len(cache.fragment.switches) == 5

    def test_k_shortest_on_fragment(self):
        topo = figure1()
        cache = TopoCache("H4")
        cache.merge_reply(make_reply(topo, "H4", "H5"))
        paths = cache.fragment.k_shortest_switch_paths("S4", "S5", 3)
        assert paths
        assert all(p[0] == "S4" and p[-1] == "S5" for p in paths)
        assert paths[0] in (["S4", "S5"],)

    def test_encode_from_fragment(self):
        topo = figure1()
        cache = TopoCache("H4")
        cache.merge_reply(make_reply(topo, "H4", "H5"))
        path = cache.encode("H4", ["S4", "S5"], "H5")
        assert path.tags == (3, 5)
        assert path.uses("S4", 3)

    def test_port_down_removes_cached_link(self):
        topo = figure1()
        cache = TopoCache("H4")
        cache.merge_reply(make_reply(topo, "H4", "H5"))
        cache.port_down("S4", 3)
        assert cache.fragment.k_shortest_switch_paths("S4", "S5", 1)[0] != ["S4", "S5"]

    def test_dead_port_survives_new_merges(self):
        """News can arrive before the path graph that contains the dead
        link; the merge must not resurrect it."""
        topo = figure1()
        cache = TopoCache("H4")
        cache.port_down("S4", 3)
        cache.merge_reply(make_reply(topo, "H4", "H5"))
        fragment_peer = cache.fragment.peer("S4", 3)
        assert fragment_peer is None

    def test_port_up_clears_dead_mark(self):
        cache = TopoCache("H4")
        cache.port_down("S4", 3)
        cache.port_up("S4", 3)
        topo = figure1()
        cache.merge_reply(make_reply(topo, "H4", "H5"))
        assert cache.fragment.peer("S4", 3) is not None

    def test_unknown_host_queries(self):
        cache = TopoCache("H4")
        assert not cache.fragment.has_host("H5")
        assert cache.attachment("H5") is None


def edges_reply(edges):
    return PathReply(
        nonce=1, src="H4", dst="H5", found=True, src_attachment=None,
        dst_attachment=None, edges=tuple(edges), version=1,
    )


class TestMergeLinks:
    def test_fragments_share_one_value_per_cable(self):
        """Two hosts caching the same reply hold the same ``Link``
        objects; the ground truth's ``add_link`` builds its own."""
        topo = figure1()
        one, two = TopoCache("H4"), TopoCache("H1")
        one.merge_reply(make_reply(topo, "H4", "H5"))
        two.merge_reply(make_reply(topo, "H1", "H5"))
        assert set(one.fragment._links) == set(topo._links)
        for key, link in one.fragment._links.items():
            assert two.fragment._links[key] is link
            assert topo._links[key] == link and topo._links[key] is not link

    def test_fragments_share_adjacency_entries_and_masks_match_the_truth(self):
        topo = figure1()
        one, two = TopoCache("H4"), TopoCache("H1")
        one.merge_reply(make_reply(topo, "H4", "H5"))
        two.merge_reply(make_reply(topo, "H1", "H5"))
        for sw, adj in one.fragment._adj.items():
            assert len(adj) == len(two.fragment._adj[sw]) == len(topo._adj[sw])
            for mine, theirs, truth in zip(adj, two.fragment._adj[sw], topo._adj[sw]):
                assert mine is theirs and mine == truth
        assert one.fragment._nmask == two.fragment._nmask == topo._nmask

    def test_cutting_one_fragment_leaves_the_other_intact(self):
        topo = figure1()
        one, two = TopoCache("H4"), TopoCache("H1")
        one.merge_reply(make_reply(topo, "H4", "H5"))
        two.merge_reply(make_reply(topo, "H1", "H5"))
        adj = {sw: list(entries) for sw, entries in two.fragment._adj.items()}
        masks = dict(two.fragment._nmask)
        one.port_down("S4", 3)
        link = one.fragment.links[0]
        one.fragment.remove_link(link.a.switch, link.a.port, link.b.switch, link.b.port)
        assert len(one.fragment.links) == len(topo.links) - 2
        assert one.fragment._nmask != masks
        assert two.fragment._adj == adj and two.fragment._nmask == masks
        assert two.fragment._nmask == topo._nmask

    @pytest.mark.parametrize(
        "edge, message",
        [
            (("S1", 1, "S1", 2), "'S1' cannot be cabled to itself"),
            (("S1", 1, "S1", 1), "'S1' cannot be cabled to itself"),
            (("S1", 255, "S2", 1), "port 255 out of range 1..254 on 'S1'"),
            (("S1", 1, "S3", 0), "port 0 out of range 1..254 on 'S3'"),
        ],
    )
    def test_bad_cable_raises_after_the_edges_before_it(self, edge, message):
        cache = TopoCache("H4")
        with pytest.raises(TopologyError, match=message):
            cache.merge_reply(edges_reply([("S1", 3, "S2", 3), edge, ("S4", 1, "S5", 1)]))
        fragment = cache.fragment
        assert fragment.has_link("S1", 3, "S2", 3)
        assert set(fragment.switches) == {"S1", "S2"} | {edge[0], edge[2]}
        assert len(fragment.links) == 1

    def test_interned_cable_still_checks_this_topology_ports(self):
        edge = ("S1", 10, "S2", 10)
        Topology().merge_links([edge], 254)  # the cable is interned now
        small = Topology()
        small.add_switch("S1", 4)
        with pytest.raises(TopologyError, match="port 10 out of range 1..4 on 'S1'"):
            small.merge_links([edge], 254)
        assert small.has_switch("S2") and not small.links

    def test_occupied_port_skips_the_edge_before_any_check(self):
        """A cable whose port is taken is skipped, even a bad one: the
        old per-edge merge asked ``peer`` before ``add_link``."""
        topo = Topology()
        topo.merge_links([("S1", 3, "S2", 3), ("S1", 3, "S1", 4), ("S2", 3, "S9", 999)], 8)
        assert topo.switches == ["S1", "S2", "S9"]
        assert [str(link) for link in topo.links] == ["S1-3<->S2-3"]

    def test_patched_link_up_rewires_the_interned_cable(self):
        """A link-down / link-up patch pair goes through the same merge
        rule as a reply, so the cable comes back as the shared value."""
        topo = figure1()
        agent = HostAgent("H4", EventLoop())
        reply = make_reply(topo, "H4", "H5")
        agent.topo_cache.merge_reply(reply)
        edge = reply.edges[0]
        for version, op in enumerate(("link-down", "link-up"), start=2):
            agent._on_patch(TopologyPatch(
                version=version, changes=(TopologyChange(op, edge),), origin="ctl"
            ))
        fragment = agent.topo_cache.fragment
        key = frozenset((PortRef(edge[0], edge[1]), PortRef(edge[2], edge[3])))
        link, on_a, on_b = _CABLES[edge]
        assert fragment._links[key] is link
        assert any(entry is on_a for entry in fragment._adj[edge[0]])
        assert any(entry is on_b for entry in fragment._adj[edge[2]])
        assert set(fragment._links) == set(topo._links)


class TestPathTable:
    def test_install_and_lookup(self):
        table = PathTable(rng=random.Random(0))
        path = cached(["S1", "S2"], [1, 5])
        table.install("dst", [path])
        assert table.lookup("dst") == path
        assert table.lookup("other") is None

    def test_flow_stickiness(self):
        table = PathTable(rng=random.Random(0))
        paths = [cached(["A"], [i]) for i in range(1, 5)]
        table.install("dst", paths)
        first = table.lookup("dst", flow_key="flow1")
        for _ in range(20):
            assert table.lookup("dst", flow_key="flow1") == first

    def test_distinct_flows_spread(self):
        table = PathTable(rng=random.Random(0))
        paths = [cached(["A"], [i]) for i in range(1, 5)]
        table.install("dst", paths)
        chosen = {table.lookup("dst", flow_key=f"f{i}").tags for i in range(40)}
        assert len(chosen) > 1

    def test_invalidate_port_drops_paths(self):
        table = PathTable(rng=random.Random(0))
        good = cached(["S1", "S2"], [1, 5])
        bad = cached(["S1", "S3"], [2, 5])
        table.install("dst", [good, bad])
        dropped = table.invalidate_port("S1", 2)
        assert dropped == 1
        for _ in range(10):
            assert table.lookup("dst") == good

    def test_failover_to_backup(self):
        table = PathTable(rng=random.Random(0))
        primary = cached(["S1", "S2"], [1, 5])
        backup = cached(["S1", "S3", "S2"], [2, 3, 5])
        table.install("dst", [primary], backup=backup)
        table.invalidate_port("S1", 1)
        assert table.lookup("dst", flow_key="f") == backup
        assert table.failovers >= 1

    def test_backup_invalidation(self):
        table = PathTable(rng=random.Random(0))
        backup = cached(["S1", "S3", "S2"], [2, 3, 5])
        table.install("dst", [], backup=backup)
        table.invalidate_port("S3", 3)
        assert table.lookup("dst") is None

    def test_flow_rebinds_after_invalidation(self):
        table = PathTable(rng=random.Random(0))
        a = cached(["S1", "S2"], [1, 5])
        b = cached(["S1", "S3"], [2, 5])
        table.install("dst", [a, b])
        # Bind deterministically, then kill the bound path.
        bound = table.lookup("dst", flow_key="f")
        other = b if bound == a else a
        table.invalidate_port(bound.switches[0], bound.tags[0])
        assert table.lookup("dst", flow_key="f") == other

    def test_size_and_counters(self):
        table = PathTable(rng=random.Random(0))
        table.install("d1", [cached(["A"], [1])], backup=cached(["B"], [2]))
        table.install("d2", [cached(["C"], [3])])
        assert table.size_paths == 3
        table.lookup("d1")
        table.lookup("missing")
        assert table.lookups == 2 and table.hits == 1

    def test_forget(self):
        table = PathTable(rng=random.Random(0))
        table.install("dst", [cached(["A"], [1])])
        table.forget("dst")
        assert table.lookup("dst") is None


class TestHostMigration:
    def test_moved_host_updates_attachment(self):
        """A VM migration re-attaches the host elsewhere; keeping the
        stale attachment would poison every path encoded toward it."""
        topo = figure1()
        cache = TopoCache("H4")
        cache.merge_reply(make_reply(topo, "H4", "H5"))
        assert cache.attachment("H5") == ("S5", 5)
        cache.record_attachment("H5", "S1", 7)
        assert cache.attachment("H5") == ("S1", 7)

    def test_unchanged_attachment_is_stable(self):
        topo = figure1()
        cache = TopoCache("H4")
        cache.merge_reply(make_reply(topo, "H4", "H5"))
        cache.record_attachment("H5", "S5", 5)
        assert cache.attachment("H5") == ("S5", 5)

    def test_migration_to_occupied_port_drops_stale_attachment(self):
        """Moving onto a port the fragment knows is a switch-switch
        link cannot be recorded, but the stale location must still go:
        half-knowledge is worse than a controller round trip."""
        topo = figure1()
        cache = TopoCache("H4")
        cache.merge_reply(make_reply(topo, "H4", "H5"))
        cache.record_attachment("H5", "S4", 3)  # S4-3 <-> S5-1 in use
        assert cache.attachment("H5") is None


def pin(table, flow_key, index):
    """Bind ``flow_key`` to primary path ``index`` of ``dst``."""
    table.entry("dst").flow_bindings[flow_key] = index


class TestBindingRemap:
    def three_paths(self):
        table = PathTable(rng=random.Random(0))
        a = cached(["S1", "S2"], [1, 5])
        b = cached(["S1", "S3"], [2, 5])
        c = cached(["S1", "S4"], [3, 5])
        table.install("dst", [a, b, c])
        return table, a, b, c

    def test_surviving_bindings_keep_their_paths(self):
        table, a, b, c = self.three_paths()
        pin(table, "fa", 0)
        pin(table, "fb", 1)
        pin(table, "fc", 2)
        table.invalidate_port("S1", 2)  # kills b only
        # Flows bound to survivors stay exactly where they were even
        # though the survivors' indices shifted.
        for _ in range(10):
            assert table.lookup("dst", flow_key="fa") == a
            assert table.lookup("dst", flow_key="fc") == c
        assert table.lookup("dst", flow_key="fb") in (a, c)

    def test_failover_counted_only_for_dead_flows(self):
        table, a, b, c = self.three_paths()
        pin(table, "fa", 0)
        pin(table, "fb", 1)
        table.invalidate_port("S1", 2)  # kills b only
        table.lookup("dst", flow_key="fa")
        assert table.failovers == 0  # fa's path survived
        table.lookup("dst", flow_key="fb")
        assert table.failovers == 1

    def test_failover_counted_per_flow_not_per_packet(self):
        table, a, b, c = self.three_paths()
        pin(table, "fb", 1)
        table.invalidate_port("S1", 2)
        for _ in range(20):
            table.lookup("dst", flow_key="fb")
        assert table.failovers == 1  # rebind once, not per lookup

    def test_rebound_flow_is_sticky(self):
        table, a, b, c = self.three_paths()
        pin(table, "fb", 1)
        table.invalidate_port("S1", 2)
        rebound = table.lookup("dst", flow_key="fb")
        for _ in range(20):
            assert table.lookup("dst", flow_key="fb") == rebound

    def test_backup_transition_counted_once_per_flow(self):
        table = PathTable(rng=random.Random(0))
        primary = cached(["S1", "S2"], [1, 5])
        backup = cached(["S1", "S3", "S2"], [2, 3, 5])
        table.install("dst", [primary], backup=backup)
        table.invalidate_port("S1", 1)
        for _ in range(20):
            assert table.lookup("dst", flow_key="f") == backup
        assert table.failovers == 1
        table.lookup("dst", flow_key="g")
        assert table.failovers == 2  # a second flow fails over once

    def test_backup_death_clears_backup_accounting(self):
        table = PathTable(rng=random.Random(0))
        backup = cached(["S1", "S3", "S2"], [2, 3, 5])
        table.install("dst", [], backup=backup)
        assert table.lookup("dst", flow_key="f") == backup
        table.invalidate_port("S3", 3)
        assert table.lookup("dst", flow_key="f") is None
        entry = table.entry("dst")
        assert entry.backup is None and not entry.backup_flows


hop_lists = st.lists(st.sampled_from(["S1", "S2", "S3"]), max_size=6)
tag_lists = st.lists(st.integers(1, 3), max_size=6)


@settings(max_examples=200, deadline=None)
@given(switches=hop_lists, tags=tag_lists)
def test_uses_is_hop_set_membership(switches, tags):
    """``uses`` scans the hops; it must answer what membership in the
    path's (switch, out-port) frozenset answers, loops and ragged
    lengths included."""
    path = cached(switches, tags)
    hops = frozenset(zip(switches, tags))
    for switch in ("S1", "S2", "S3", "S4"):
        for port in range(0, 5):
            assert path.uses(switch, port) == ((switch, port) in hops)


@settings(max_examples=100, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.lists(st.tuples(hop_lists, tag_lists), max_size=4),
            st.one_of(st.none(), st.tuples(hop_lists, tag_lists)),
            st.lists(st.integers(-1, 4), max_size=5),
        ),
        max_size=4,
    ),
    switch=st.sampled_from(["S1", "S2", "S3"]),
    port=st.integers(1, 3),
)
def test_invalidate_port_matches_a_hop_set_oracle(entries, switch, port):
    """Every path, primary or backup, whose hop set holds (switch, port)
    goes; survivors keep their order and their flows, the dead paths'
    flows are tombstoned, and the count is what the hop sets say."""
    table = PathTable(rng=random.Random(0))
    want, want_dropped = {}, 0
    for index, (primaries, backup, bound) in enumerate(entries):
        paths = [cached(*hops) for hops in primaries]
        spare = cached(*backup) if backup is not None else None
        entry = table.install(f"d{index}", paths, spare)
        entry.flow_bindings = {f"f{n}": i for n, i in enumerate(bound)}
        dead = [(switch, port) in frozenset(zip(p.switches, p.tags)) for p in paths]
        alive = [p for p, gone in zip(paths, dead) if not gone]
        bindings = dict(entry.flow_bindings)
        if any(dead):  # a surviving flow follows its path object
            position = {id(p): j for j, p in enumerate(alive)}
            bindings = {
                flow: position.get(id(paths[i]), BINDING_DEAD)
                if 0 <= i < len(paths) else BINDING_DEAD
                for flow, i in bindings.items()
            }
        spare_dead = spare is not None and (switch, port) in frozenset(
            zip(spare.switches, spare.tags)
        )
        want[f"d{index}"] = (alive, None if spare_dead else spare, bindings)
        want_dropped += sum(dead) + spare_dead
    assert table.invalidate_port(switch, port) == want_dropped
    got = {
        dst: (e.primaries, e.backup, e.flow_bindings)
        for dst in table.destinations()
        for e in [table.entry(dst)]
    }
    assert got == want
