"""The host agent's two-level path cache (Section 5.2, Figure 4).

* :class:`TopoCache` aggregates the path graphs the controller has
  returned into one partial topology view, the fragment the agent's
  k shortest paths come from, and absorbs failure news and patches.
* :class:`PathTable` caches fully-encoded tag routes per destination
  host (the k shortest paths plus the backup path), remembers which
  path each flow is bound to, and drops every cached path that leaves
  a switch through a failed port (a scan of each path's few hops).

Both structures are plain host memory: the paper measures the whole
cache at < 10 MB for a 2,000-switch network (Section 7.3).  A fabric's
fragments share one :class:`~repro.topology.graph.SwitchIndex`, so they
share the cables :meth:`Topology.merge_links
<repro.topology.graph.Topology.merge_links>` interns; a path is two tuples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..topology.graph import SwitchIndex, Topology, TopologyError
from .messages import PathReply

__all__ = ["TopoCache", "PathTable", "CachedPath", "PathTableEntry"]

#: Ports per switch assumed when a path graph does not say.  Only used
#: to size the fragment topology; never probed.
FRAGMENT_PORTS = 254


@dataclass(frozen=True, slots=True)
class CachedPath:
    """One encoded route: the switch sequence plus its ready tag list
    (``tags[i]`` is the out-port at ``switches[i]``)."""

    switches: Tuple[str, ...]
    tags: Tuple[int, ...]

    @classmethod
    def from_encoding(cls, switches: Sequence[str], tags: Sequence[int]) -> "CachedPath":
        return cls(tuple(switches), tuple(tags))

    def uses(self, switch: str, port: int) -> bool:
        return (switch, port) in zip(self.switches, self.tags)


class TopoCache:
    """Partial network view assembled from controller path graphs."""

    def __init__(self, owner: str, index: Optional[SwitchIndex] = None) -> None:
        self.owner = owner
        self.fragment = Topology(index)
        self.version = 0
        #: (switch, port) pairs known dead; survives fragment rebuilds.
        self.dead_ports: Set[Tuple[str, int]] = set()

    # ------------------------------------------------------------------
    # merging controller replies

    def merge_reply(self, reply: PathReply) -> None:
        """Fold a :class:`~repro.core.messages.PathReply` subgraph in."""
        self.fragment.merge_links(reply.edges, FRAGMENT_PORTS)
        for host, attachment in (
            (reply.src, reply.src_attachment),
            (reply.dst, reply.dst_attachment),
        ):
            if attachment is not None:
                self.record_attachment(host, attachment[0], attachment[1])
        self.version = max(self.version, reply.version)
        self._apply_dead_ports()

    def record_attachment(self, host: str, switch: str, port: int) -> None:
        self._ensure_switch(switch)
        if self.fragment.has_host(host):
            ref = self.fragment.host_port(host)
            if (ref.switch, ref.port) == (switch, port):
                return
            # The host moved (VM migration, recabling): a stale
            # attachment poisons every path encoded toward it.
            self.fragment.remove_host(host)
        if self.fragment.peer(switch, port) is None:
            self.fragment.add_host(host, switch, port)

    def _ensure_switch(self, switch: str) -> None:
        if not self.fragment.has_switch(switch):
            self.fragment.add_switch(switch, FRAGMENT_PORTS)

    # ------------------------------------------------------------------
    # failure news

    def port_down(self, switch: str, port: int) -> None:
        """Stage-1 news: drop any cached link touching (switch, port)."""
        self.dead_ports.add((switch, port))
        self._apply_dead_ports()

    def port_up(self, switch: str, port: int) -> None:
        """The port works again; cached links reappear via new replies."""
        self.dead_ports.discard((switch, port))

    def _apply_dead_ports(self) -> None:
        for switch, port in list(self.dead_ports):
            if not self.fragment.has_switch(switch):
                continue
            peer = self.fragment.peer(switch, port)
            if peer is None:
                continue
            # Only switch-switch links are removed; a host attachment
            # going down means the destination is gone, which the
            # PathTable handles by failing sends.
            if hasattr(peer, "switch"):
                self.fragment.remove_link(switch, port, peer.switch, peer.port)

    # ------------------------------------------------------------------
    # queries

    def attachment(self, host: str) -> Optional[Tuple[str, int]]:
        if not self.fragment.has_host(host):
            return None
        ref = self.fragment.host_port(host)
        return (ref.switch, ref.port)

    def encode(self, src_host: str, switches: Sequence[str], dst_host: str) -> CachedPath:
        tags = self.fragment.encode_path(src_host, switches, dst_host)
        return CachedPath.from_encoding(switches, tags)


#: Tombstone binding index: the flow *was* bound but its path died.
#: Distinguishes "needs a failover rebind" from "never bound at all" so
#: the failover counter counts path deaths, not first bindings.
BINDING_DEAD = -1


@dataclass
class PathTableEntry:
    """Everything cached for one destination host."""

    dst: str
    primaries: List[CachedPath] = field(default_factory=list)
    backup: Optional[CachedPath] = None
    #: Sticky flow binding: flow key -> index into ``primaries``
    #: (or :data:`BINDING_DEAD` when the bound path was invalidated).
    flow_bindings: Dict[object, int] = field(default_factory=dict)
    #: Flow keys already counted as failed over to the backup path.
    backup_flows: Set[object] = field(default_factory=set)

    @property
    def empty(self) -> bool:
        return not self.primaries and self.backup is None


class PathTable:
    """Destination-indexed tag-route cache with sticky flow binding."""

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._entries: Dict[str, PathTableEntry] = {}
        self.rng = rng or random.Random(0)
        self.lookups = 0
        self.hits = 0
        self.invalidations = 0
        self.failovers = 0

    # ------------------------------------------------------------------

    def install(
        self,
        dst: str,
        primaries: Iterable[CachedPath],
        backup: Optional[CachedPath] = None,
    ) -> PathTableEntry:
        entry = PathTableEntry(dst=dst, primaries=list(primaries), backup=backup)
        self._entries[dst] = entry
        return entry

    def entry(self, dst: str) -> Optional[PathTableEntry]:
        return self._entries.get(dst)

    def forget(self, dst: str) -> None:
        self._entries.pop(dst, None)

    def destinations(self) -> List[str]:
        return list(self._entries)

    # ------------------------------------------------------------------

    def lookup(self, dst: str, flow_key: object = None) -> Optional[CachedPath]:
        """The route for (dst, flow).

        Flows stick to their bound path while it is alive; a dead bound
        path fails over to another primary, then to the backup
        (Section 5.2: "flows will automatically choose a new path when
        the older path is invalidated").
        """
        self.lookups += 1
        entry = self._entries.get(dst)
        if entry is None or entry.empty:
            return None
        self.hits += 1
        if entry.primaries:
            if flow_key is None:
                return self.rng.choice(entry.primaries)
            index = entry.flow_bindings.get(flow_key)
            if index is None or not 0 <= index < len(entry.primaries):
                if index == BINDING_DEAD:
                    # The flow's bound path died: this rebind is the
                    # failover event (one per flow, not per packet).
                    self.failovers += 1
                index = self.rng.randrange(len(entry.primaries))
                entry.flow_bindings[flow_key] = index
            return entry.primaries[index]
        # All primaries dead: the backup keeps the flow alive.  Count
        # the transition once per flow; later packets are not failovers.
        if flow_key not in entry.backup_flows:
            entry.backup_flows.add(flow_key)
            self.failovers += 1
        return entry.backup

    # ------------------------------------------------------------------
    # failure invalidation

    def invalidate_port(self, switch: str, port: int) -> int:
        """Drop every cached path that transits (switch, out-port).

        Returns how many paths were dropped.  Flow bindings pointing at
        removed paths are rebound lazily on the next lookup.
        """
        dropped = 0
        for entry in self._entries.values():
            survivors = []
            new_index_of: Dict[int, int] = {}
            for old_index, path in enumerate(entry.primaries):
                if path.uses(switch, port):
                    continue
                new_index_of[old_index] = len(survivors)
                survivors.append(path)
            removed = len(entry.primaries) - len(survivors)
            if removed:
                entry.primaries = survivors
                # Surviving bindings follow their path to its new index
                # (Section 5.2: flows stick to their bound path while it
                # is alive); only flows whose path died are tombstoned
                # for a counted failover rebind on their next packet.
                entry.flow_bindings = {
                    flow: new_index_of.get(index, BINDING_DEAD)
                    for flow, index in entry.flow_bindings.items()
                }
            dropped += removed
            if entry.backup is not None and entry.backup.uses(switch, port):
                entry.backup = None
                entry.backup_flows.clear()
                dropped += 1
        self.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------

    @property
    def size_paths(self) -> int:
        return sum(
            len(e.primaries) + (1 if e.backup else 0)
            for e in self._entries.values()
        )
