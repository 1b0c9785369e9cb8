"""Quorum log and replicated topology store tests."""

import pytest

from repro.consensus import (
    Cluster,
    NotLeaderError,
    QuorumLostError,
    ReplicatedTopologyStore,
    apply_change,
)
from repro.core.messages import TopologyChange
from repro.topology import paper_testbed


class TestElection:
    def test_simple_election(self):
        cluster = Cluster(["a", "b", "c"])
        assert cluster.elect("a")
        assert cluster.leader == "a"
        assert cluster.nodes["a"].is_leader

    def test_crashed_candidate_cannot_win(self):
        cluster = Cluster(["a", "b", "c"])
        cluster.nodes["a"].crash()
        assert not cluster.elect("a")
        assert cluster.elect_any() in ("b", "c")

    def test_minority_partition_cannot_elect(self):
        cluster = Cluster(["a", "b", "c"])
        cluster.isolate("a")
        assert not cluster.elect("a")
        assert cluster.elect("b")

    def test_behind_log_loses_election(self):
        cluster = Cluster(["a", "b", "c"])
        cluster.elect("a")
        cluster.append("x")
        cluster.append("y")
        # c has the log (replicated); wipe b's to simulate lag.
        cluster.nodes["b"].log.clear()
        cluster.nodes["b"].commit_index = 0
        cluster.leader = None
        # b cannot win against peers with longer logs... unless the
        # voters are lenient; our rule rejects shorter candidate logs.
        assert not cluster.elect("b")
        assert cluster.elect("c")

    def test_lost_election_ends_leadership(self):
        """A candidate that loses stops leading.  Otherwise ``a`` keeps
        its lease into the term it has just bumped: two nodes lead term
        2, ``c`` commits ``X`` through ``a``, and a later append through
        ``b`` (which also lost, and also kept leading) overwrites it with
        ``Y``."""
        cluster = Cluster(["a", "b", "c"])
        seen = {name: [] for name in cluster.nodes}

        def step(op, *args, **kwargs):
            try:
                result = op(*args, **kwargs)
            except NotLeaderError:
                result = None
            for name, node in cluster.nodes.items():
                # A committed prefix only ever grows.
                assert node.committed[: len(seen[name])] == seen[name]
                seen[name] = node.committed
            terms = [n.term for n in cluster.nodes.values() if n.is_leader]
            assert len(terms) == len(set(terms)), "two leaders in one term"
            return result

        step(cluster.elect, "a")
        cluster.partition("a", "b")
        assert step(cluster.elect, "b")
        assert not step(cluster.elect, "a")
        assert not cluster.nodes["a"].is_leader
        assert step(cluster.append, "X", via="a") is None
        step(cluster.elect, "b")
        step(cluster.append, "Y", via="b")
        assert cluster.nodes["c"].committed == ["Y"]


class TestAppend:
    def test_append_commits_on_majority(self):
        cluster = Cluster(["a", "b", "c"])
        cluster.elect("a")
        cluster.append("x")
        assert cluster.committed_everywhere() == ["x"]

    def test_append_without_leader_fails(self):
        cluster = Cluster(["a", "b"])
        with pytest.raises(NotLeaderError):
            cluster.append("x")

    def test_append_via_non_leader_fails(self):
        cluster = Cluster(["a", "b", "c"])
        cluster.elect("a")
        with pytest.raises(NotLeaderError):
            cluster.append("x", via="b")

    def test_no_quorum_rolls_back(self):
        cluster = Cluster(["a", "b", "c"])
        cluster.elect("a")
        cluster.isolate("a")
        with pytest.raises(QuorumLostError):
            cluster.append("x")
        # The write never happened anywhere.
        assert cluster.nodes["a"].log == []
        assert not cluster.nodes["a"].is_leader

    def test_failover_preserves_committed_entries(self):
        cluster = Cluster(["a", "b", "c"])
        cluster.elect("a")
        for i in range(5):
            cluster.append(i)
        cluster.nodes["a"].crash()
        cluster.leader = None
        new_leader = cluster.elect_any()
        assert new_leader in ("b", "c")
        assert cluster.committed_everywhere() == [0, 1, 2, 3, 4]
        cluster.append(5)
        assert cluster.committed_everywhere() == [0, 1, 2, 3, 4, 5]

    def test_stale_exleader_cannot_commit(self):
        cluster = Cluster(["a", "b", "c"])
        cluster.elect("a")
        cluster.append("x")
        # Partition the old leader away, elect a new one.
        cluster.isolate("a")
        cluster.elect("b")
        cluster.append("y", via="b")
        # The stale leader's term is dead: its append loses quorum.
        with pytest.raises((NotLeaderError, QuorumLostError)):
            cluster.append("z", via="a")

    def test_recovered_replica_catches_up(self):
        cluster = Cluster(["a", "b", "c"])
        cluster.elect("a")
        cluster.nodes["c"].crash()
        cluster.append("x")
        cluster.append("y")
        cluster.nodes["c"].recover()
        cluster.append("z")  # replication brings c up to date
        assert cluster.nodes["c"].committed == ["x", "y", "z"]

    def test_stale_tail_of_equal_length_is_overwritten(self):
        # e holds a rolled-back "v1" at index 0 and a higher term than
        # the next leader b, so it rejects b's first rounds.  When b's
        # log reaches the same length, e must not keep "v1" as if it
        # were b's committed "v2".
        cluster = Cluster(["a", "b", "c", "d", "e"])
        cluster.elect("a")
        for peer in ("b", "c", "d"):
            cluster.partition("a", peer)
        with pytest.raises(QuorumLostError):
            cluster.append("v1")
        assert cluster.nodes["e"].log[0].payload == "v1"
        cluster.elect("a")
        cluster.elect("a")
        assert cluster.elect("b")
        cluster.append("v2")
        assert cluster.elect("b")
        assert all(
            node.committed == ["v2"]
            for name, node in cluster.nodes.items() if name != "a"
        )

    def test_single_node_cluster(self):
        cluster = Cluster(["solo"])
        cluster.elect("solo")
        cluster.append(1)
        assert cluster.committed_everywhere() == [1]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])


class TestApplyChange:
    def test_link_down_and_up(self):
        view = paper_testbed()
        apply_change(view, TopologyChange("link-down", ("leaf0", 1, "spine0", 1)))
        assert not view.has_link("leaf0", 1, "spine0", 1)
        apply_change(view, TopologyChange("link-up", ("leaf0", 1, "spine0", 1)))
        assert view.has_link("leaf0", 1, "spine0", 1)

    def test_idempotent_link_down(self):
        view = paper_testbed()
        change = TopologyChange("link-down", ("leaf0", 1, "spine0", 1))
        apply_change(view, change)
        apply_change(view, change)  # no raise

    def test_switch_down(self):
        view = paper_testbed()
        apply_change(view, TopologyChange("switch-down", ("spine0",)))
        assert not view.has_switch("spine0")

    def test_host_lifecycle(self):
        view = paper_testbed()
        apply_change(view, TopologyChange("host-down", ("h0_0",)))
        assert not view.has_host("h0_0")
        apply_change(view, TopologyChange("host-up", ("h0_0", "leaf0", 3)))
        assert view.has_host("h0_0")


class TestReplicatedTopologyStore:
    def test_changes_reach_all_replicas(self):
        store = ReplicatedTopologyStore(["c1", "c2", "c3"], paper_testbed())
        store.append(TopologyChange("link-down", ("leaf0", 1, "spine0", 1)))
        for replica in ("c1", "c2", "c3"):
            assert not store.view_of(replica).has_link("leaf0", 1, "spine0", 1)

    def test_primary_failover_keeps_view(self):
        store = ReplicatedTopologyStore(["c1", "c2", "c3"], paper_testbed())
        store.append(TopologyChange("link-down", ("leaf0", 1, "spine0", 1)))
        old = store.primary
        new = store.fail_primary()
        assert new is not None and new != old
        assert not store.view_of(new).has_link("leaf0", 1, "spine0", 1)
        # The promoted replica keeps serving writes.
        store.append(TopologyChange("link-down", ("leaf1", 1, "spine0", 2)))
        assert not store.view_of(new).has_link("leaf1", 1, "spine0", 2)

    def test_recovered_replica_converges(self):
        store = ReplicatedTopologyStore(["c1", "c2", "c3"], paper_testbed())
        victim = [n for n in store.views if n != store.primary][0]
        store.cluster.nodes[victim].crash()
        store.append(TopologyChange("link-down", ("leaf0", 1, "spine0", 1)))
        store.recover(victim)
        assert not store.view_of(victim).has_link("leaf0", 1, "spine0", 1)
