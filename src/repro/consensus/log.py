"""A quorum-replicated log: the ZooKeeper stand-in (Section 4.1).

The paper keeps controller replicas consistent "using Apache ZooKeeper
to store the topology changes".  This module implements the same
guarantee from scratch at the level DumbNet needs:

* a cluster of :class:`ReplicaNode` processes, one leader at a time;
* the leader appends entries, replicates to followers, and commits an
  entry once a majority has acknowledged it (primary-backup with
  majority quorum -- the ZAB/Raft commit rule);
* term-based leader election so a crashed leader is replaced and a
  stale ex-leader can never commit (its term is dead);
* followers apply committed entries in order to a state machine.

The transport is injectable; tests exercise partitions and crashes with
a lossy in-memory transport, and the controller integration applies
topology changes as the replicated state machine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "LogEntry",
    "ReplicaNode",
    "Cluster",
    "NotLeaderError",
    "QuorumLostError",
]


class NotLeaderError(RuntimeError):
    """Append attempted on a non-leader replica."""


class QuorumLostError(RuntimeError):
    """The leader could not reach a majority."""


@dataclass(frozen=True)
class LogEntry:
    term: int
    index: int
    payload: Any


class ReplicaNode:
    """One replica: a log, a term, and an apply callback."""

    def __init__(
        self,
        name: str,
        apply_fn: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.name = name
        self.apply_fn = apply_fn
        self.term = 0
        self.voted_for: Optional[Tuple[int, str]] = None  # (term, candidate)
        self.log: List[LogEntry] = []
        self.commit_index = 0  # count of committed entries
        self.alive = True
        self.is_leader = False

    # ------------------------------------------------------------------
    # RPC handlers (invoked by the cluster transport)

    def request_vote(
        self, term: int, candidate: str, log_len: int, last_term: int = 0
    ) -> bool:
        if not self.alive:
            return False
        if term < self.term:
            return False
        if term > self.term:
            self.term = term
            self.is_leader = False
        if (last_term, log_len) < (self._last_term(), len(self.log)):
            return False  # candidate's log is behind ours
        if self.voted_for is not None and self.voted_for[0] == term:
            return self.voted_for[1] == candidate
        self.voted_for = (term, candidate)
        return True

    def append_entries(
        self,
        term: int,
        leader: str,
        prev_len: int,
        entries: Sequence[LogEntry],
        leader_commit: int,
        prev_term: int = 0,
    ) -> bool:
        if not self.alive:
            return False
        if term < self.term:
            return False
        self.term = term
        if leader != self.name:
            self.is_leader = False
        if prev_len > len(self.log):
            return False  # gap: leader must back up
        if prev_len and self.log[prev_len - 1].term != prev_term:
            return False  # same length, different history: back up
        # Truncate any divergent suffix, then append.
        if prev_len < len(self.log):
            del self.log[prev_len:]
        self.log.extend(entries)
        self._advance_commit(min(leader_commit, len(self.log)))
        return True

    def _last_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def _advance_commit(self, new_commit: int) -> None:
        while self.commit_index < new_commit:
            entry = self.log[self.commit_index]
            self.commit_index += 1
            if self.apply_fn is not None:
                self.apply_fn(entry.payload)

    # ------------------------------------------------------------------

    def crash(self) -> None:
        self.alive = False
        self.is_leader = False

    def recover(self) -> None:
        self.alive = True

    @property
    def committed(self) -> List[Any]:
        return [entry.payload for entry in self.log[: self.commit_index]]


class Cluster:
    """The replica group plus its (possibly lossy) transport."""

    def __init__(
        self,
        names: Sequence[str],
        apply_factory: Optional[Callable[[str], Optional[Callable[[Any], None]]]] = None,
    ) -> None:
        if not names:
            raise ValueError("a cluster needs at least one replica")
        self.nodes: Dict[str, ReplicaNode] = {}
        for name in names:
            apply_fn = apply_factory(name) if apply_factory else None
            self.nodes[name] = ReplicaNode(name, apply_fn)
        self.leader: Optional[str] = None
        #: Pairs (a, b) that cannot talk (symmetric); tests inject these.
        self.partitions: Set[frozenset] = set()

    # ------------------------------------------------------------------
    # transport

    def _reachable(self, a: str, b: str) -> bool:
        return frozenset((a, b)) not in self.partitions

    def partition(self, a: str, b: str) -> None:
        self.partitions.add(frozenset((a, b)))

    def heal(self, a: Optional[str] = None, b: Optional[str] = None) -> None:
        if a is None:
            self.partitions.clear()
        else:
            assert b is not None
            self.partitions.discard(frozenset((a, b)))

    def isolate(self, name: str) -> None:
        for other in self.nodes:
            if other != name:
                self.partition(name, other)

    # ------------------------------------------------------------------
    # election

    @property
    def majority(self) -> int:
        return len(self.nodes) // 2 + 1

    def elect(self, candidate: str) -> bool:
        """Run one election round for ``candidate``; True on win."""
        node = self.nodes[candidate]
        if not node.alive:
            return False
        # Standing for a new term ends any lease the candidate held: a
        # loser must not go on appending in the term it just bumped.
        node.is_leader = False
        if self.leader == candidate:
            self.leader = None
        node.term += 1
        node.voted_for = (node.term, candidate)
        votes = 1
        for name, peer in self.nodes.items():
            if name == candidate or not self._reachable(candidate, name):
                continue
            if peer.request_vote(
                node.term, candidate, len(node.log), node._last_term()
            ):
                votes += 1
        if votes >= self.majority:
            # The old leader may not even know; its term is stale, so
            # its future appends will be rejected.
            node.is_leader = True
            self.leader = candidate
            # Bring followers up to date immediately.
            self._replicate(candidate)
            return True
        return False

    def elect_any(self, exclude: Optional[Set[str]] = None) -> Optional[str]:
        """Elect the first alive, connected node that can win.

        ``exclude`` names nodes that must not be candidates (they still
        vote) -- a planned step-down wants a *different* leader even
        though the old one is alive and has the longest log.
        """
        for name in sorted(self.nodes):
            if exclude and name in exclude:
                continue
            if self.nodes[name].alive and self.elect(name):
                return name
        return None

    def step_down(self, prefer: Optional[str] = None) -> Optional[str]:
        """Planned leader hand-off: the current leader relinquishes the
        lease *without crashing* and a different replica is elected.

        Unlike ``crash()``, the demoted node stays alive: it keeps
        voting, and the successor's first replication round brings it
        up to date as an ordinary follower.  Returns the new leader's
        name, or ``None`` if no other replica could win (in which case
        the old leader is re-elected so the cluster is not left
        headless).
        """
        old = self.leader
        if old is not None:
            self.nodes[old].is_leader = False
            self.leader = None
        if prefer is not None and prefer != old and self.elect(prefer):
            return prefer
        exclude = {old} if old is not None else None
        winner = self.elect_any(exclude=exclude)
        if winner is not None:
            return winner
        # Nobody else can win (e.g. a two-node cluster with the peer
        # down).  Restore the old leader rather than losing the lease.
        if old is not None and self.nodes[old].alive:
            self.elect(old)
        return None

    # ------------------------------------------------------------------
    # append

    def append(self, payload: Any, via: Optional[str] = None) -> LogEntry:
        """Append through the leader; commits on majority ack."""
        leader_name = via or self.leader
        if leader_name is None:
            raise NotLeaderError("no leader elected")
        leader = self.nodes[leader_name]
        if not leader.is_leader or not leader.alive:
            raise NotLeaderError(f"{leader_name!r} is not the live leader")
        entry = LogEntry(term=leader.term, index=len(leader.log), payload=payload)
        leader.log.append(entry)
        acks = self._replicate(leader_name)
        if acks < self.majority:
            # Roll back the uncommitted tail: the write never happened.
            leader.log.pop()
            leader.is_leader = False
            raise QuorumLostError(
                f"{leader_name!r} reached {acks}/{self.majority} replicas"
            )
        leader._advance_commit(len(leader.log))
        self._replicate(leader_name)  # piggy-back the new commit index
        return entry

    def _replicate(self, leader_name: str) -> int:
        leader = self.nodes[leader_name]
        acks = 1  # self
        for name, peer in self.nodes.items():
            if name == leader_name:
                continue
            if not self._reachable(leader_name, name):
                continue
            prev_len = min(len(peer.log), len(leader.log))
            ok = peer.append_entries(
                term=leader.term,
                leader=leader_name,
                prev_len=prev_len,
                entries=leader.log[prev_len:],
                leader_commit=leader.commit_index,
                prev_term=leader.log[prev_len - 1].term if prev_len else 0,
            )
            if not ok and peer.alive and peer.term <= leader.term:
                # Divergent follower: resend the whole log (small logs;
                # ZooKeeper snapshots would go here at scale).
                ok = peer.append_entries(
                    term=leader.term,
                    leader=leader_name,
                    prev_len=0,
                    entries=leader.log,
                    leader_commit=leader.commit_index,
                )
            if ok:
                acks += 1
        return acks

    # ------------------------------------------------------------------

    def committed_everywhere(self) -> List[Any]:
        """Entries committed on every live replica (test helper)."""
        live = [n for n in self.nodes.values() if n.alive]
        if not live:
            return []
        shortest = min(n.commit_index for n in live)
        reference = live[0].log[:shortest]
        for node in live[1:]:
            if node.log[:shortest] != reference:
                raise AssertionError("committed prefixes diverge")
        return [entry.payload for entry in reference]
