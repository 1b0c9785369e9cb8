"""Stateful property testing of the quorum log.

A hypothesis rule-based state machine drives the cluster through
arbitrary interleavings of appends, crashes, recoveries, partitions,
heals and elections, checking the safety property ZooKeeper gives the
paper's controllers: **exposed (committed) entries are never lost and
never reordered** -- any two live replicas agree on the committed
prefix, and every value a client was told "committed" stays committed.
It also checks Raft's Election Safety (one leader per term) and that no
replica's committed prefix is ever rewritten.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.consensus import Cluster, NotLeaderError, QuorumLostError
from repro.consensus.store import ReplicatedTopologyStore
from repro.core.messages import TopologyChange
from repro.topology.graph import Topology

NODE_NAMES = ("n0", "n1", "n2", "n3", "n4")


class QuorumLogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = Cluster(list(NODE_NAMES))
        self.cluster.elect_any()
        self.acknowledged = []  # entries a client saw commit, in order
        self.counter = 0
        self.committed = {}  # node -> its committed (term, payload) prefix

    # ------------------------------------------------------------------
    # actions

    @rule(via=st.none() | st.sampled_from(NODE_NAMES))
    def append(self, via):
        """Write through the leader, or ``via`` a node a client still
        believes leads."""
        self.counter += 1
        value = f"v{self.counter}"
        try:
            self.cluster.append(value, via=via)
        except (NotLeaderError, QuorumLostError):
            return  # rejected writes may not be exposed -- fine
        self.acknowledged.append(value)

    @rule(index=st.integers(min_value=0, max_value=len(NODE_NAMES) - 1))
    def crash(self, index):
        self.cluster.nodes[NODE_NAMES[index]].crash()
        if self.cluster.leader == NODE_NAMES[index]:
            self.cluster.leader = None

    @rule(index=st.integers(min_value=0, max_value=len(NODE_NAMES) - 1))
    def recover(self, index):
        self.cluster.nodes[NODE_NAMES[index]].recover()

    @rule(
        a=st.integers(min_value=0, max_value=len(NODE_NAMES) - 1),
        b=st.integers(min_value=0, max_value=len(NODE_NAMES) - 1),
    )
    def partition(self, a, b):
        if a != b:
            self.cluster.partition(NODE_NAMES[a], NODE_NAMES[b])

    @rule()
    def heal_all(self):
        self.cluster.heal()

    @rule(index=st.integers(min_value=0, max_value=len(NODE_NAMES) - 1))
    def elect(self, index):
        self.cluster.elect(NODE_NAMES[index])

    @rule()
    def elect_any(self):
        self.cluster.elect_any()

    # ------------------------------------------------------------------
    # safety invariants

    @invariant()
    def committed_prefixes_agree(self):
        """Any two replicas' committed prefixes are consistent."""
        nodes = list(self.cluster.nodes.values())
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                shorter = min(a.commit_index, b.commit_index)
                assert (
                    [e.payload for e in a.log[:shorter]]
                    == [e.payload for e in b.log[:shorter]]
                ), f"{a.name} and {b.name} diverge in committed prefix"

    @invariant()
    def one_leader_per_term(self):
        """Election Safety: at most one live node leads any one term."""
        leaders = {}
        for node in self.cluster.nodes.values():
            if node.alive and node.is_leader:
                assert node.term not in leaders, (
                    f"{leaders[node.term]} and {node.name} both lead "
                    f"term {node.term}"
                )
                leaders[node.term] = node.name

    @invariant()
    def committed_prefixes_only_grow(self):
        """State Machine Safety: no node's committed prefix ever
        shrinks or changes between steps."""
        for node in self.cluster.nodes.values():
            now = [(e.term, e.payload) for e in node.log[: node.commit_index]]
            before = self.committed.get(node.name, [])
            assert now[: len(before)] == before, (
                f"{node.name} rewrote its committed prefix: {before} -> {now}"
            )
            self.committed[node.name] = now

    @invariant()
    def acknowledged_entries_survive(self):
        """Every client-acknowledged value is committed, in order, on
        at least a majority of replicas."""
        if not self.acknowledged:
            return
        holders = 0
        for node in self.cluster.nodes.values():
            committed = [e.payload for e in node.log[: node.commit_index]]
            if _is_subsequence(self.acknowledged, committed):
                holders += 1
        assert holders >= self.cluster.majority, (
            f"acknowledged {self.acknowledged} held by only "
            f"{holders}/{len(self.cluster.nodes)} replicas"
        )


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(item in it for item in needle)


TestQuorumLog = QuorumLogMachine.TestCase
TestQuorumLog.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


# ----------------------------------------------------------------------
# Replicated topology views

REPLICAS = ("r0", "r1", "r2")
SWITCHES = ("s0", "s1", "s2", "s3")
HOST_NAMES = ("h0", "h1", "h2")
PORTS = 6


def _seed_topology() -> Topology:
    topo = Topology()
    for switch in SWITCHES:
        topo.add_switch(switch, PORTS)
    topo.add_link("s0", 1, "s1", 1)
    topo.add_link("s1", 2, "s2", 1)
    topo.add_link("s2", 2, "s3", 1)
    topo.add_host("h0", "s0", 3)
    topo.add_host("h1", "s2", 3)
    return topo


class ReplicaViewMachine(RuleBasedStateMachine):
    """View-level safety on top of the quorum log: randomly interleaved
    committed :class:`TopologyChange` records -- valid, stale and
    conflicting alike -- plus crashes, recoveries, planned step-downs
    and primary failures must leave every live replica's view with the
    **same wiring as the primary's**.  (This is the property the
    reconciling ``apply_change`` restores: silently skipping a record a
    replica disagrees with would break it permanently.)
    """

    def __init__(self):
        super().__init__()
        self.store = ReplicatedTopologyStore(list(REPLICAS), _seed_topology())
        self.down = None  # at most one replica is down at a time

    def _commit(self, op, args):
        try:
            self.store.append(TopologyChange(op=op, args=args))
        except (NotLeaderError, QuorumLostError):
            pass  # rejected writes change no view

    # ------------------------------------------------------------------
    # committed topology changes

    @rule(
        a=st.integers(min_value=0, max_value=len(SWITCHES) - 1),
        b=st.integers(min_value=0, max_value=len(SWITCHES) - 1),
        pa=st.integers(min_value=1, max_value=PORTS),
        pb=st.integers(min_value=1, max_value=PORTS),
        up=st.booleans(),
    )
    def link_change(self, a, b, pa, pb, up):
        if a == b:
            return
        self._commit(
            "link-up" if up else "link-down",
            (SWITCHES[a], pa, SWITCHES[b], pb),
        )

    @rule(
        host=st.sampled_from(HOST_NAMES),
        sw=st.sampled_from(SWITCHES),
        port=st.integers(min_value=1, max_value=PORTS),
        up=st.booleans(),
    )
    def host_change(self, host, sw, port, up):
        if up:
            self._commit("host-up", (host, sw, port))
        else:
            self._commit("host-down", (host,))

    @rule(sw=st.sampled_from(SWITCHES), up=st.booleans())
    def switch_change(self, sw, up):
        if up:
            self._commit("switch-up", (sw, PORTS))
        else:
            self._commit("switch-down", (sw,))

    # ------------------------------------------------------------------
    # failures and hand-offs

    @rule(index=st.integers(min_value=0, max_value=len(REPLICAS) - 1))
    def crash_follower(self, index):
        name = REPLICAS[index]
        if self.down is not None or name == self.store.primary:
            return
        self.store.cluster.nodes[name].crash()
        self.down = name

    @rule()
    def recover_downed(self):
        if self.down is None:
            return
        self.store.recover(self.down)
        self.down = None

    @rule()
    def planned_step_down(self):
        self.store.step_down()

    @rule()
    def fail_primary(self):
        if self.down is not None:
            return
        old = self.store.primary
        if old is None:
            self.store.cluster.elect_any()
            return
        self.store.fail_primary()
        self.down = old

    # ------------------------------------------------------------------
    # the safety property

    @invariant()
    def live_views_match_primary(self):
        leader = self.store.primary
        if leader is None:
            return
        primary_view = self.store.view_of(leader)
        for name in REPLICAS:
            if not self.store.cluster.nodes[name].alive:
                continue
            assert self.store.view_of(name).same_wiring(primary_view), (
                f"live replica {name} diverged from primary {leader}"
            )


TestReplicaViews = ReplicaViewMachine.TestCase
TestReplicaViews.settings = settings(
    max_examples=50, stateful_step_count=40, deadline=None
)
