"""Control-plane scale-out: per-pod path-service shards (LazyCtrl-style).

DumbNet centralizes topology knowledge and path computation in one
controller, which makes the control plane the scaling bottleneck.  This
module splits the serving layer the way LazyCtrl splits the network:
**edge groups (pods) under local control, with a lazily involved
central tier**.

* :class:`PodMap` partitions the switch graph into pods (fat-tree
  ``agg{pod}_{i}`` / ``edge{pod}_{i}`` names by default; any callable
  works) and builds each pod's **local subview**: the pod's switches,
  every podless (core) switch, the links among them, and the pod's
  hosts.  Core switches are included because a path graph between two
  pod switches legitimately contains core detours (an agg->core->agg
  bounce fits the s+epsilon detour budget), and on a fat-tree the
  subview preserves full-view distances for intra-pod sources -- which
  is what makes shard answers **byte-identical** to the unsharded
  service (same stable tie-breaker seed, same key).

* :class:`PathShard` owns one pod: a per-shard
  :class:`~repro.consensus.store.ReplicatedTopologyStore` (so each
  shard fails over independently -- one pod's quorum election never
  stalls another pod's queries) and a per-shard
  :class:`~repro.core.pathservice.PathService` whose SSSP trees and
  LRU cache cover only the subview.

* :class:`ShardedPathService` is the router + thin global tier: it
  sends intra-pod queries to the owning shard and serves cross-pod and
  degraded-shard queries from its global PathService over the full
  view.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..consensus.log import NotLeaderError, QuorumLostError
from ..consensus.store import ReplicatedTopologyStore
from ..topology.graph import Topology
from .messages import TopologyChange
from .pathgraph import PathGraph
from .pathservice import PathService

__all__ = [
    "PodMap",
    "PathShard",
    "ShardedPathService",
    "ShardUnavailable",
    "fat_tree_pod_of",
]

#: Default pod extractor: fat-tree style names (``agg3_1``, ``edge0_2``,
#: plus the leaf/tor spellings other generators use).  Core/spine
#: switches match nothing and belong to the global (podless) tier.
_POD_RE = re.compile(r"^(?:agg|edge|leaf|tor)(\d+)_")


def fat_tree_pod_of(switch: str) -> Optional[str]:
    """Pod id for fat-tree style switch names; ``None`` for core tier."""
    match = _POD_RE.match(switch)
    return match.group(1) if match else None


class ShardUnavailable(RuntimeError):
    """The pod's shard has no live quorum leader."""


class PodMap:
    """Assignment of switches to pods, plus subview construction.

    The assignment is computed once from switch names (or a caller
    supplied ``pod_fn``) and lazily extended for switches discovered
    later.  ``None`` means the podless core/global tier.
    """

    def __init__(
        self,
        assignment: Mapping[str, Optional[str]],
        pod_fn: Optional[Callable[[str], Optional[str]]] = None,
    ) -> None:
        self._pod_of: Dict[str, Optional[str]] = dict(assignment)
        self._fn = pod_fn or fat_tree_pod_of

    @classmethod
    def from_view(
        cls,
        view: Topology,
        pod_fn: Optional[Callable[[str], Optional[str]]] = None,
    ) -> "PodMap":
        fn = pod_fn or fat_tree_pod_of
        return cls({sw: fn(sw) for sw in view.switches}, pod_fn=fn)

    def pod_of(self, switch: str) -> Optional[str]:
        if switch not in self._pod_of:
            # A switch discovered after the map was built (hotplug,
            # incremental rediscovery): classify it the same way.
            self._pod_of[switch] = self._fn(switch)
        return self._pod_of[switch]

    @property
    def pods(self) -> List[str]:
        return sorted({p for p in self._pod_of.values() if p is not None})

    def subview(self, view: Topology, pod: str) -> Topology:
        """The pod's local topology: pod switches + every core switch,
        the links among them, and the pod's hosts -- added in the full
        view's insertion order so adjacency iteration (and therefore
        SSSP relaxation order and equal-cost parent lists) matches the
        full view exactly."""
        include = {
            sw for sw in view.switches if self.pod_of(sw) in (pod, None)
        }
        sub = Topology()
        for sw in view.switches:
            if sw in include:
                sub.add_switch(sw, view.num_ports(sw))
        for link in view.links:
            if link.a.switch in include and link.b.switch in include:
                sub.add_link(link.a.switch, link.a.port, link.b.switch, link.b.port)
        for host in view.hosts:
            ref = view.host_port(host)
            if self.pod_of(ref.switch) == pod:
                sub.add_host(host, ref.switch, ref.port)
        return sub


class PathShard:
    """One pod's controller shard: replicated local state + path cache."""

    def __init__(
        self,
        pod: str,
        local_view: Topology,
        *,
        seed: int = 0,
        capacity: int = 512,
        n_replicas: int = 3,
    ) -> None:
        self.pod = pod
        self.replica_names = [f"{pod}/r{i}" for i in range(n_replicas)]
        self.store = ReplicatedTopologyStore(self.replica_names, local_view)
        #: Same seed as the global service: identical (src, dst, s, eps)
        #: keys derive identical tie-breaker salts, which is half of the
        #: byte-identity contract (the other half is the subview
        #: preserving distances -- see the module docstring).
        self.service = PathService(capacity=capacity, seed=seed)
        self.changes_applied = 0
        #: Set when a quorum append failed: the serving view may lag the
        #: authoritative one, so the router falls back to the global
        #: tier until the next :meth:`ShardedPathService.rebuild`.
        self.stale = False
        #: Hot-path cache of the primary's view.  Leadership changes
        #: only through :meth:`fail_primary` (which clears it); in-place
        #: commits keep the same view object, and the path service's
        #: epoch check catches those mutations.
        self._serving: Optional[Topology] = None

    @property
    def primary(self) -> Optional[str]:
        return self.store.primary

    @property
    def available(self) -> bool:
        return not self.stale and self.store.primary is not None

    @property
    def view(self) -> Topology:
        leader = self.store.primary
        if leader is None:
            self._serving = None
            raise ShardUnavailable(f"pod {self.pod!r} has no live leader")
        serving = self.store.view_of(leader)
        self._serving = serving
        return serving

    def path_graph(
        self, src_sw: str, dst_sw: str, s: int, epsilon: int
    ) -> Optional[PathGraph]:
        view = self._serving
        if view is None:
            view = self.view
        return self.service.path_graph(view, src_sw, dst_sw, s, epsilon)

    def apply(self, change: TopologyChange) -> None:
        """Commit one topology change through the shard's quorum and
        invalidate the path cache precisely (the primary replica's view
        was just mutated exactly once, so link-down stays a surgical
        eviction)."""
        self.store.append(change)
        self.changes_applied += 1
        self.service.note_topology_change(self.view, change.op, change.args)

    def fail_primary(self) -> Optional[str]:
        """Crash the shard's primary replica and elect a successor."""
        new_leader = self.store.fail_primary()
        self._serving = None
        return new_leader


class ShardedPathService:
    """Router over per-pod shards plus the thin global tier.

    Holds a *reference* to the full view (never copies or mutates it);
    the global service answers every query no shard owns.
    """

    def __init__(
        self,
        view: Topology,
        pod_map: Optional[PodMap] = None,
        *,
        seed: int = 0,
        capacity: int = 512,
        n_replicas: int = 3,
    ) -> None:
        self.view = view
        self.seed = seed
        self.capacity = capacity
        self.n_replicas = n_replicas
        self.pod_map = pod_map or PodMap.from_view(view)
        self._pod_fn = self.pod_map._fn
        self.global_service = PathService(capacity=capacity, seed=seed)
        self.shards: Dict[str, PathShard] = {}
        for pod in self.pod_map.pods:
            self._make_shard(pod)
        self.global_queries = 0

    # ------------------------------------------------------------------
    # construction / topology ownership

    def _make_shard(self, pod: str) -> PathShard:
        shard = PathShard(
            pod,
            self.pod_map.subview(self.view, pod),
            seed=self.seed,
            capacity=self.capacity,
            n_replicas=self.n_replicas,
        )
        self.shards[pod] = shard
        return shard

    def rebuild(self, view: Topology) -> None:
        """Adopt a whole new full view (controller failover / bulk
        rediscovery): re-shard from scratch.  Rare and expensive by
        design -- deltas go through :meth:`note_topology_change`."""
        self.view = view
        self.pod_map = PodMap.from_view(view, self._pod_fn)
        self.shards = {}
        for pod in self.pod_map.pods:
            self._make_shard(pod)
        self.global_service.flush()

    # ------------------------------------------------------------------
    # queries

    def shard_for(self, src_sw: str, dst_sw: str) -> Optional[PathShard]:
        """The shard owning this query, or ``None`` for the global tier."""
        pod_a = self.pod_map.pod_of(src_sw)
        if pod_a is None or pod_a != self.pod_map.pod_of(dst_sw):
            return None
        shard = self.shards.get(pod_a)
        if shard is None or not shard.available:
            return None
        return shard

    def path_graph(
        self, src_sw: str, dst_sw: str, s: int, epsilon: int
    ) -> Optional[PathGraph]:
        """Serve one path query: the owning pod shard for intra-pod
        pairs, the global tier otherwise (cross-pod, unknown switches,
        shard mid-election or stale)."""
        shard = self.shard_for(src_sw, dst_sw)
        if shard is not None:
            return shard.path_graph(src_sw, dst_sw, s, epsilon)
        self.global_queries += 1
        return self.global_service.path_graph(
            self.view, src_sw, dst_sw, s, epsilon
        )

    # ------------------------------------------------------------------
    # topology change routing

    def note_topology_change(self, op: str, args: Tuple) -> None:
        """Route one already-committed change to the global service and
        to the shards whose subviews contain the touched element."""
        self.global_service.note_topology_change(self.view, op, args)
        for pod in self._pods_touched(op, args):
            shard = self.shards.get(pod)
            if shard is None:
                if op == "switch-up":
                    # A whole new pod appeared: give it a shard.
                    self._make_shard(pod)
                continue
            if shard.stale:
                continue
            try:
                shard.apply(TopologyChange(op=op, args=tuple(args)))
            except (NotLeaderError, QuorumLostError):
                shard.stale = True
                shard.service.flush()

    def _pods_touched(self, op: str, args: Tuple) -> List[str]:
        pods = self.pod_map.pods
        if op in ("link-down", "link-up"):
            sw_a, _pa, sw_b, _pb = args
            pod_a = self.pod_map.pod_of(sw_a)
            pod_b = self.pod_map.pod_of(sw_b)
            if pod_a is None and pod_b is None:
                return pods  # core-core: in every subview
            if pod_a == pod_b:
                return [pod_a]  # intra-pod (both non-None here)
            if pod_a is None or pod_b is None:
                # pod <-> core boundary link: in that pod's subview.
                return [p for p in (pod_a, pod_b) if p is not None]
            # Direct pod <-> pod cable: in neither subview.
            return []
        if op in ("switch-up", "switch-down"):
            pod = self.pod_map.pod_of(args[0])
            return pods if pod is None else [pod]
        if op == "host-up":
            _host, switch, _port = args
            pod = self.pod_map.pod_of(switch)
            return [] if pod is None else [pod]
        if op == "host-down":
            (host,) = args
            return [
                pod
                for pod, shard in self.shards.items()
                if shard.available and shard.view.has_host(host)
            ]
        return []  # adopt-view and unknown ops: handled by rebuild()
