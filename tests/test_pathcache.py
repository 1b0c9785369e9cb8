"""Tests for TopoCache and PathTable (Section 5.2)."""

import random

from repro.core.messages import PathReply
from repro.core.pathcache import CachedPath, PathTable, TopoCache
from repro.topology import figure1


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
