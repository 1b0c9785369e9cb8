"""Exhaustive small-scope check of the quorum log.

A breadth-first search runs every operation sequence, up to
:data:`DEPTH` operations, on a three-replica :class:`Cluster` that
starts with no leader.  The operations are an election of each live
node, ``elect_any``, an append through the cluster's leader, an append
``via=`` each other node that believes it leads, a crash and a recovery
of each node, a partition and a heal of each pair, and ``step_down``.

States are plain tuples (one snapshot per step, no ``deepcopy``), so
sequences that reach the same state are explored once.  Each state also
records the term in which each committed index was first committed;
that history is what the leader-completeness check needs.

Every transition must keep Raft's safety properties (Ongaro &
Ousterhout, "In Search of an Understandable Consensus Algorithm",
USENIX ATC 2014, Fig. 3):

* Election Safety: at most one live leader per term;
* Log Matching on the committed part: committed prefixes agree;
* Leader Completeness: a leader of term T holds every entry committed
  in an earlier term;
* State Machine Safety: no node's committed prefix shrinks or changes;
* every node's applied payloads equal its committed log.

The hypothesis machine in ``test_consensus_properties.py`` samples
longer runs; this search covers every short one.
"""

import gc
from typing import Dict, Iterator, List, Tuple

from repro.consensus.log import Cluster, NotLeaderError, QuorumLostError

NAMES = ("a", "b", "c")
PAIRS = (("a", "b"), ("a", "c"), ("b", "c"))
#: Operations per sequence.  Depth 4 already reaches two leaders in one
#: term when ``Cluster.elect`` lets a losing candidate keep its lease.
DEPTH = 7

# A state is (nodes, leader, cut pairs, commit terms).  Each node is
# (term, voted_for, log, commit_index, alive, is_leader, applied), with
# log a tuple of (immutable) LogEntry; commit terms[i] is the term in
# which index i was first committed.
TERM, VOTED, LOG, COMMIT, ALIVE, LEADS, APPLIED = range(7)


def snapshot(cluster: Cluster, applied: Dict[str, List], commit_terms: Tuple) -> Tuple:
    nodes = tuple(
        (
            node.term,
            node.voted_for,
            tuple(node.log),
            node.commit_index,
            node.alive,
            node.is_leader,
            tuple(applied[name]),
        )
        for name, node in cluster.nodes.items()
    )
    cut = tuple(pair for pair in PAIRS if frozenset(pair) in cluster.partitions)
    return (nodes, cluster.leader, cut, commit_terms)


def restore(state: Tuple) -> Tuple[Cluster, Dict[str, List]]:
    nodes, leader, cut, _commit_terms = state
    applied: Dict[str, List] = {name: [] for name in NAMES}
    cluster = Cluster(NAMES, apply_factory=lambda name: applied[name].append)
    for node, fields in zip(cluster.nodes.values(), nodes):
        node.term, node.voted_for = fields[TERM], fields[VOTED]
        node.log = list(fields[LOG])
        node.commit_index = fields[COMMIT]
        node.alive, node.is_leader = fields[ALIVE], fields[LEADS]
        applied[node.name].extend(fields[APPLIED])
    cluster.leader = leader
    for a, b in cut:
        cluster.partition(a, b)
    return cluster, applied


def moves(state: Tuple) -> Iterator[Tuple]:
    nodes, leader, cut, _commit_terms = state
    for name, fields in zip(NAMES, nodes):
        if fields[ALIVE]:
            yield ("elect", name)
            yield ("crash", name)
            if fields[LEADS] and name != leader:
                yield ("append", name)
        else:
            yield ("recover", name)
    yield ("elect_any",)
    if leader is not None and nodes[NAMES.index(leader)][LEADS]:
        yield ("append", None)
    yield ("step_down",)
    for pair in PAIRS:
        yield ("heal" if pair in cut else "partition",) + pair


def play(cluster: Cluster, move: Tuple) -> None:
    op, *args = move
    if op == "append":
        # The payload names the writer, so two leaders' entries differ.
        try:
            cluster.append(args[0] or cluster.leader, via=args[0])
        except (NotLeaderError, QuorumLostError):
            pass
    elif op in ("crash", "recover"):
        getattr(cluster.nodes[args[0]], op)()
    elif op == "elect":
        cluster.elect(args[0])
    elif op == "elect_any":
        cluster.elect_any()
    elif op == "step_down":
        cluster.step_down()
    else:
        getattr(cluster, op)(*args)


def step(state: Tuple, move: Tuple) -> Tuple:
    """The state after ``move``, with newly committed indices stamped
    with the term that committed them."""
    cluster, applied = restore(state)
    play(cluster, move)
    commit_terms = state[3]
    nodes, leader, cut, _ = snapshot(cluster, applied, commit_terms)
    longest = max(fields[COMMIT] for fields in nodes)
    commit_terms += tuple(
        min(fields[TERM] for fields in nodes if fields[COMMIT] > index)
        for index in range(len(commit_terms), longest)
    )
    return (nodes, leader, cut, commit_terms)


def committed(fields: Tuple) -> Tuple:
    return fields[LOG][: fields[COMMIT]]


def check_transition(before: Tuple, after: Tuple, trace: Tuple) -> None:
    for name, old, new in zip(NAMES, before[0], after[0]):
        assert committed(new)[: old[COMMIT]] == committed(old), (
            f"{name} rewrote its committed prefix after {trace}"
        )


def check_state(state: Tuple, trace: Tuple) -> None:
    nodes, _leader, _cut, commit_terms = state
    leaders: Dict[int, str] = {}
    for name, fields in zip(NAMES, nodes):
        if fields[ALIVE] and fields[LEADS]:
            assert fields[TERM] not in leaders, (
                f"{leaders[fields[TERM]]} and {name} both lead term "
                f"{fields[TERM]} after {trace}"
            )
            leaders[fields[TERM]] = name
    prefixes = [committed(fields) for fields in nodes]
    longest = max(prefixes, key=len)
    for name, fields, prefix in zip(NAMES, nodes, prefixes):
        assert longest[: len(prefix)] == prefix, (
            f"{name}'s committed prefix disagrees after {trace}"
        )
        assert fields[APPLIED] == tuple(entry.payload for entry in prefix), (
            f"{name} applied something other than its committed log after {trace}"
        )
    for term, name in leaders.items():
        log = nodes[NAMES.index(name)][LOG]
        for index, committed_in in enumerate(commit_terms):
            if committed_in < term:
                assert log[index:index + 1] == longest[index:index + 1], (
                    f"{name} leads term {term} without entry {index}, "
                    f"committed in term {committed_in}, after {trace}"
                )


def explore(depth: int) -> int:
    """Check every sequence of up to ``depth`` operations; return the
    number of distinct states reached."""
    start = snapshot(Cluster(NAMES), {name: [] for name in NAMES}, ())
    traces = {start: ()}
    frontier = [start]
    for _ in range(depth):
        reached = []
        for state in frontier:
            for move in moves(state):
                after = step(state, move)
                if after == state:
                    continue
                trace = traces[state] + (move,)
                check_transition(state, after, trace)
                if after not in traces:
                    check_state(after, trace)
                    traces[after] = trace
                    reached.append(after)
        frontier = reached
    return len(traces)


def test_every_short_sequence_keeps_raft_safety():
    # Every state stays live until the end, so the cyclic collector
    # would only re-scan them: ~20 % of the run.
    gc.disable()
    try:
        reached = explore(DEPTH)
    finally:
        gc.enable()
    # The search's size: a move the generator stops offering shows here.
    assert reached == 121_482
