"""The controller's fast path service (Section 4.3).

The paper frames path graphs as *cacheable* controller state: "the
controller can cache path graphs for popular pairs" (§4.3, Fig 12) and
"only affected flows react" to a failure (§4.2).  This module makes the
controller's repeated path work near-free while keeping every answer
byte-identical to a fresh computation:

* **Shared SSSP trees** -- one full BFS per (current topology, source
  switch), memoized and reused across ``_tags_between``,
  ``_routes_between``, gossip-overlay rebuilds, and every path-graph
  build (primary walk-back and Algorithm-1 detour level masks).  A
  full tree reproduces the early-terminating per-pair run exactly: the
  equal-cost parent lists of every switch a walk-back can visit have
  the same content in the same relaxation order.

* **A bounded LRU path-graph cache** keyed on (src switch, dst switch,
  s, epsilon) within one coherency epoch -- (``Topology.uid``,
  ``Topology.topo_version``) -- with hit/miss/eviction counters
  surfaced through :mod:`repro.core.telemetry` and the chaos report.
  Any switch-graph mutation made behind the service's back moves the
  epoch and drops everything on the next query, so direct view edits
  (tests, fault injectors) can never serve stale answers.

* **Incremental invalidation on failure** -- one scan of the cached
  graphs (at most ``capacity``, in LRU order) evicts exactly those whose
  edge set contains a failed cable; everything else survives.  This is sound
  because a path graph's induced edge set contains *every* link between
  its nodes, and removing a link outside the graph can only shrink
  shortest-path parent sets elsewhere: with the stable tie-breaker
  below, an argmin over a subset that still contains the old argmin is
  unchanged, so a fresh build on the patched view reproduces the
  surviving entry bit for bit.  SSSP trees survive too, except where
  the cable's lower end ``u`` is the *first* parent of its other end
  ``v``: otherwise BFS discovers every switch from the same parent at
  the same slot, so the tree's levels are the patched view's BFS, and
  the parents it derives from the live wiring lose ``u`` exactly when
  no parallel cable remains.

* **A link flap is an undo** -- the link-up of the last downed cable,
  as the next mutation, drops what the outage cached and restores the
  evicted graphs (at the LRU's oldest end, in their old order) and the
  kept pre-down trees.  A path graph depends only on wiring
  (:class:`StablePathRng` is order-free, ``edges`` sorted, its switches
  one ``mask`` int of process-wide switch bits, valid only in the
  process that built it), so it is exact again if the cable keeps its
  ``a`` side; a kept tree is, as the returning cable is appended to
  both adjacency lists, which cannot move ``v``'s discovery when ``u``
  is not its first parent.  Anything else that can create shortest
  paths, or is not a one-step epoch advance, flushes.

**Determinism contract.**  Randomized tie-breaking among equal-cost
parents is what spreads load across shortest paths (§4.3), but a
mutable ``random.Random`` stream would make a cache hit observably
different from a fresh build (the hit skips the draws).  The service
therefore derives one :class:`StablePathRng` per cache key: the choice
among equal-cost parents is a pure function of (service seed, src, dst,
s, epsilon, candidate), different across pairs (load balancing
preserved) but reproducible -- ``build_path_graph(view, ...,
rng=service.rng_for(...))`` always equals the cached answer.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..topology.graph import SSSPTree, Topology
from .pathgraph import PathGraph, build_path_graph

__all__ = [
    "PathService",
    "PathServiceStats",
    "StablePathRng",
    "stable_salt",
]

#: One cached path graph: (src switch, dst switch, s, epsilon).
GraphKey = Tuple[str, str, int, int]

_MISSING = object()


def stable_salt(seed: int, src: str, dst: str, s: int, epsilon: int) -> str:
    """The tie-breaker salt for one cache key -- public so tests and
    benchmarks can rebuild the exact rng a cached entry was built with."""
    return f"{seed}:{src}:{dst}:{s}:{epsilon}"


class StablePathRng:
    """Drop-in for the ``rng`` that path building consumes (only
    ``choice`` is ever called) whose picks are a pure function of
    (salt, candidate): the argmin of a keyed blake2s digest.

    Unlike ``random.Random.choice``, the pick does not depend on the
    *number* or *order* of candidates -- only on which candidates exist.
    Removing never-chosen alternates (what a far-away link failure does
    to equal-cost parent lists) cannot change the outcome, which is the
    property that makes selective cache retention byte-exact.
    """

    __slots__ = ("_salt",)

    def __init__(self, salt: str) -> None:
        self._salt = salt

    def choice(self, seq: Sequence[str]) -> str:
        if len(seq) == 1:
            return seq[0]
        salt = self._salt
        return min(
            seq,
            key=lambda item: hashlib.blake2s(f"{salt}|{item}".encode()).digest(),
        )


class PathServiceStats:
    """Plain counters; exported through telemetry and the chaos report."""

    __slots__ = (
        "hits",
        "misses",
        "capacity_evictions",
        "link_evictions",
        "link_invalidations",
        "flushes",
        "stale_flushes",
        "tree_builds",
        "tree_hits",
        "restores",  # link flaps undone on link-up instead of flushed
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


@dataclass
class _Outage:
    """The one link-down a matching link-up can undo: the cable as the
    cached graphs name it, the epoch after the down, the evicted graphs
    (oldest first), the pre-down trees it kept and the keys cached since."""

    cable: Set[Tuple[str, int, str, int]]
    epoch: Tuple[int, int]
    evicted: List[Tuple[GraphKey, PathGraph]]
    trees: Dict[str, SSSPTree]
    built: Set[GraphKey] = field(default_factory=set)


class PathService:
    """Shared SSSP trees + LRU path-graph cache + precise invalidation.

    The service never mutates or retains the view; the owning
    controller passes its current view into every query and calls
    :meth:`invalidate_link` / :meth:`flush` from the exact code paths
    that mutate the view's switch graph.  Host additions need no hook:
    they do not touch switch reachability.
    """

    def __init__(self, capacity: int = 512, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seed = seed
        self.stats = PathServiceStats()
        self._graphs: "OrderedDict[GraphKey, Optional[PathGraph]]" = OrderedDict()
        self._trees: Dict[str, SSSPTree] = {}
        #: Coherency epoch: (view.uid, view.topo_version) the cached
        #: state was built against; None when empty.
        self._epoch: Optional[Tuple[int, int]] = None
        self._outage: Optional[_Outage] = None

    def __len__(self) -> int:
        return len(self._graphs)

    def _sync(self, view: Topology) -> None:
        """Drop everything if the view's switch graph moved without the
        controller telling us (a direct test/fault-injector edit)."""
        current = (view.uid, view.topo_version)
        if self._epoch == current:
            return
        if self._epoch is not None:
            self._drop_all()
            self.stats.stale_flushes += 1
        self._epoch = current

    # ------------------------------------------------------------------
    # shared SSSP trees

    def tree(self, view: Topology, source: str) -> SSSPTree:
        """The memoized unit-cost SSSP tree rooted at ``source``."""
        self._sync(view)
        tree = self._trees.get(source)
        if tree is None:
            tree = self._trees[source] = view.sssp_tree(source)
            self.stats.tree_builds += 1
        else:
            self.stats.tree_hits += 1
        return tree

    def shortest_path(
        self, view: Topology, src: str, dst: str, rng=None
    ) -> Optional[List[str]]:
        """Tree-backed ``view.shortest_switch_path(src, dst)``."""
        if not view.has_switch(src):
            return None
        return self.tree(view, src).path_to(dst, rng=rng)

    # ------------------------------------------------------------------
    # path graphs

    def rng_for(self, src: str, dst: str, s: int, epsilon: int) -> StablePathRng:
        """The exact tie-breaker a (cached or fresh) build for this key
        uses -- rebuildable by anyone who knows the service seed."""
        return StablePathRng(stable_salt(self.seed, src, dst, s, epsilon))

    def path_graph(
        self, view: Topology, src: str, dst: str, s: int, epsilon: int
    ) -> Optional[PathGraph]:
        """The path graph for a switch pair, served from cache when
        possible.  Unreachable pairs cache ``None`` (a link failure can
        never connect them; anything that could flushes the cache)."""
        self._sync(view)
        key = (src, dst, s, epsilon)
        cached = self._graphs.get(key, _MISSING)
        if cached is not _MISSING:
            self._graphs.move_to_end(key)
            self.stats.hits += 1
            return cached  # type: ignore[return-value]
        self.stats.misses += 1
        graph = self.build_fresh(view, src, dst, s, epsilon)
        self._insert(key, graph)
        return graph

    def build_fresh(
        self, view: Topology, src: str, dst: str, s: int, epsilon: int
    ) -> Optional[PathGraph]:
        """An uncached build with this key's deterministic rng -- the
        reference every cached answer must stay byte-identical to."""
        if not (view.has_switch(src) and view.has_switch(dst)):
            return None
        return build_path_graph(
            view,
            src,
            dst,
            s=s,
            epsilon=epsilon,
            rng=self.rng_for(src, dst, s, epsilon),
            tree=self.tree(view, src),
            level_masks=lambda source: self.tree(view, source).masks,
        )

    def _insert(self, key: GraphKey, graph: Optional[PathGraph]) -> None:
        self._graphs[key] = graph
        if self._outage is not None:
            self._outage.built.add(key)
        while len(self._graphs) > self.capacity:
            self._graphs.popitem(last=False)
            self.stats.capacity_evictions += 1

    # ------------------------------------------------------------------
    # invalidation

    def invalidate_link(
        self, view: Topology, sw_a: str, port_a: int, sw_b: str, port_b: int
    ) -> int:
        """A cable went down: evict exactly the cached path graphs whose
        edges contain it (§4.2: only affected flows react), keep every
        SSSP tree whose BFS order the cable cannot move, and record the
        outage so :meth:`note_topology_change` can undo it on link-up.
        Returns the number of evicted entries.

        ``view`` is the already-patched view.  Selective retention is
        only sound when the removal is the sole mutation since the cache
        was filled, so anything but a single-step epoch advance falls
        back to a full flush.
        """
        self.stats.link_invalidations += 1
        current = (view.uid, view.topo_version)
        single_step = (
            self._epoch is not None
            and self._epoch[0] == current[0]
            and self._epoch[1] + 1 == current[1]
        )
        if not single_step:
            if self._epoch is not None:
                self._drop_all()
                self.stats.stale_flushes += 1
            self._epoch = current
            return 0
        self._epoch = current
        # One scan of at most ``capacity`` graphs, in LRU order (it decides
        # later capacity evictions).  The caller may name the cable from
        # either side; the graphs holding it name it from its ``a`` side.
        named = {(sw_a, port_a, sw_b, port_b), (sw_b, port_b, sw_a, port_a)}
        both = view.index.mask_of((sw_a, sw_b))
        evicted = [
            (key, graph)
            for key, graph in self._graphs.items()
            if graph is not None
            and graph.mask & both == both
            and not named.isdisjoint(graph.edges)
        ]
        cable = named.intersection(evicted[0][1].edges) if evicted else named
        for key, _graph in evicted:
            del self._graphs[key]
        self.stats.link_evictions += len(evicted)
        kept: Dict[str, SSSPTree] = {}
        for source, tree in self._trees.items():
            dist = tree.dist
            if sw_a in dist and dist[sw_a] != dist[sw_b]:
                u, v = (sw_a, sw_b) if dist[sw_a] < dist[sw_b] else (sw_b, sw_a)
                # Was u first, in u's level, of v's neighbours before the
                # down?  Then v's discovery slot may move: rebuild.
                others = tree.parents_of(v)
                first = others[0] if others else u
                if next(p for p in tree.levels[int(dist[u])] if p in (u, first)) == u:
                    continue
            kept[source] = tree
        self._trees = kept
        self._outage = _Outage(cable, current, evicted, dict(kept))
        return len(evicted)

    def note_topology_change(self, view: Topology, op: str, args: Tuple) -> None:
        """Apply the right invalidation for one already-applied
        :class:`~repro.core.messages.TopologyChange`.

        Callers that mutate the view (the controller's probe runs,
        replicas replaying the quorum log, shards) route every change
        through here instead of choosing between :meth:`invalidate_link`
        and :meth:`flush` themselves: link removals get precise
        eviction, the link-up that returns the last downed cable as the
        very next mutation restores the pre-outage graphs and trees,
        host attachment changes cost nothing (they never touch switch
        reachability), and anything else (another link-up, switch-up,
        adopt-view) flushes.
        """
        if op == "link-down":
            sw_a, port_a, sw_b, port_b = args
            self.invalidate_link(view, sw_a, port_a, sw_b, port_b)
        elif op in ("host-up", "host-down"):
            pass
        elif not (op == "link-up" and self._undo_outage(view, args)):
            self.flush()

    def _undo_outage(self, view: Topology, args: Tuple) -> bool:
        """Undo the recorded outage if this link-up returns its cable, from
        the same side, as the only mutation since; False otherwise."""
        outage = self._outage
        if (
            outage is None
            or (view.uid, view.topo_version - 1) != outage.epoch
            or outage.cable.isdisjoint(view.links_within(view.index.mask_of(args[::2])))
        ):
            return False
        self._outage = None
        for key in outage.built:
            self._graphs.pop(key, None)
        # Never touched since before the outage: the LRU's oldest end.
        for key, graph in reversed(outage.evicted):
            self._graphs[key] = graph
            self._graphs.move_to_end(key, last=False)
        self._trees = outage.trees
        self._epoch = (view.uid, view.topo_version)
        self.stats.restores += 1
        return True

    def flush(self) -> None:
        """Topology changed in a way precise eviction cannot honor (a
        link-up that is not an undo, a switch appeared, a new view was
        adopted): drop everything."""
        self._drop_all()
        self.stats.flushes += 1

    def _drop_all(self) -> None:
        self._graphs.clear()
        self._trees.clear()
        self._epoch = None
        self._outage = None
