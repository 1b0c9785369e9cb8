"""Fluid (flow-level) network simulator.

Flows are fluid streams that at every instant receive their max-min
fair share of the links on their route.  The simulator advances from
event to event (flow arrival, flow completion, injected network event),
recomputing the allocation in between.  This is the standard flow-level
methodology for data-center throughput studies, and is what makes the
HiBench-scale experiments tractable (the paper itself notes a Python
packet dataplane is far too slow).

Path selection is pluggable via :class:`PathPolicy`: the same simulator
runs DumbNet with flowlet-style rebalancing, DumbNet pinned to a single
path, and ECMP-like hashing, which is exactly the comparison Figure 13
draws.

Two engineering notes:

* The simulator keeps an explicit *active set* -- completed flows drop
  out of every per-event scan, so event cost is O(active), not O(total
  flows ever injected).  ``self.flows`` still records every flow for
  post-run analysis.
* Rate recomputation is *dirty-flag gated*: an epoch that processed no
  arrival, finish, or injected event (possible when a subclass bounds
  epochs, see the hook points below) reuses the standing allocation
  instead of re-running the policy and the max-min fill.

Subclass hook points (all prefixed ``_``, all no-ops or identity here)
let :class:`~repro.hybrid.engine.HybridEngine` couple a packet-level
region to the fluid clock without forking this loop: ``_admit``,
``_external_demands``, ``_post_recompute``, ``_revalidate_external``,
``_rebalance_population``, ``_coupling_bound``, ``_couple_to``,
``_recordable_flows``.  With no subclass the loop's behaviour is
byte-identical to the plain fluid simulator.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.report import ReportBase
from .maxmin import max_min_rates
from .network import FlowNet

__all__ = [
    "Flow",
    "PathPolicy",
    "SingleShortestPolicy",
    "HashedKPathPolicy",
    "RebalancingKPathPolicy",
    "FluidSimulator",
    "FluidReport",
    "ThroughputSeries",
]

#: A flow is finished once its residue is below this fraction of its
#: size.  Relative, not absolute: the old absolute ``1e-6``-bit cutoff
#: finished a sub-microbit flow "early" at a coincident event while it
#: still had half its bits to move.  1e-12 matches double precision --
#: residue below size * 1e-12 is below the resolution of the running
#: ``remaining -= rate * dt`` subtraction anyway.
FINISH_EPS_REL = 1e-12

#: Events within this window of the current instant are coalesced into
#: one epoch (float-dust separation is not a real ordering).
TIME_EPS = 1e-12


@dataclass(slots=True)
class Flow:
    """One fluid flow."""

    fid: int
    src: str
    dst: str
    size_bits: float
    start_s: float
    demand_bps: float = math.inf
    tag: Hashable = None  # caller-defined grouping (task id, stage id...)
    #: Re-route by assigning a whole list, never by editing one in place:
    #: :meth:`FlowNet.flow_links` keys the resolved links on the path
    #: *object*.
    switch_path: Optional[List[str]] = None
    remaining_bits: float = 0.0
    rate_bps: float = 0.0
    finished_at: Optional[float] = None
    stalled: bool = False
    #: Pinned flows keep their path: the load-balancing policy counts
    #: them but never migrates them.  The hybrid engine pins flows it
    #: has promoted to the packet region (their path is baked into a
    #: live packet pipeline).
    pinned: bool = False
    # Resolved-route cache, owned by :meth:`FlowNet.flow_links`: the
    # links of ``_links_path`` as of ``_links_epoch``.
    _links: Optional[Tuple] = field(default=None, init=False, repr=False, compare=False)
    _links_path: Optional[List[str]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _links_epoch: int = field(default=-1, init=False, repr=False, compare=False)

    @property
    def done(self) -> bool:
        return self.finished_at is not None


class PathPolicy:
    """Chooses (and re-chooses after failures) a flow's switch path."""

    #: Cumulative count of active-flow path migrations (the scorecard's
    #: reroute metric).  Policies that never migrate leave it at 0.
    reroutes: int = 0
    #: Fluid model of per-packet spraying: the scenario runner splits
    #: every request into this many equal subflows.  1 = no splitting.
    subflows: int = 1

    def choose(self, net: FlowNet, flow: Flow) -> Optional[List[str]]:
        raise NotImplementedError

    def rebalance(self, net: FlowNet, flows: Sequence[Flow]) -> bool:
        """Optionally move active flows between paths; True if changed."""
        return False


class SingleShortestPolicy(PathPolicy):
    """Always the (deterministic) shortest path: the "DumbNet single
    path" baseline of Figure 13 and the classic L2/STP behaviour."""

    def choose(self, net: FlowNet, flow: Flow) -> Optional[List[str]]:
        found = net.candidates(flow.src, flow.dst, 1)
        return found[0][0] if found else None


class HashedKPathPolicy(PathPolicy):
    """Pick one of the k shortest paths by flow hash (ECMP-style)."""

    def __init__(self, k: int = 4, seed: int = 0) -> None:
        self.k = k
        self.seed = seed

    def choose(self, net: FlowNet, flow: Flow) -> Optional[List[str]]:
        found = net.candidates(flow.src, flow.dst, self.k)
        if not found:
            return None
        return found[hash((self.seed, flow.fid)) % len(found)][0]


def least_loaded(
    net: FlowNet,
    flow: Flow,
    k: int,
    level: Mapping[Tuple, float],
    current: Optional[float] = None,
) -> Optional[Tuple[List[str], Tuple, float]]:
    """The first of the flow's k alive candidates with the lowest
    bottleneck ``level`` (per-link load or utilisation), as ``(path,
    links, bottleneck)``; None when no candidate is alive.  ``current``
    is the already-known bottleneck of ``flow.switch_path``, reused when
    that path is one of the candidates.

    A bottleneck is ``max(level.get(link, 0) for link in links)`` as an
    inline loop: the first link's level, replaced only by a strictly
    greater one."""
    known = flow.switch_path if current is not None else None
    get = level.get
    best = None
    for path, links in net.candidates(flow.src, flow.dst, k):
        if path is known:
            value = current
        else:
            value = get(links[0], 0)
            for link in links:
                other = get(link, 0)
                if other > value:
                    value = other
        if best is None or value < best[2]:
            best = (path, links, value)
    return best


#: A flow only migrates when the alternative is this much less loaded,
#: which damps oscillation.
HEADROOM = 1.25


def better_path(
    net: FlowNet,
    flow: Flow,
    k: int,
    level: Mapping[Tuple, float],
    mark: float = -math.inf,
) -> Optional[Tuple[List[str], Optional[Tuple], Tuple]]:
    """The one load scan behind every rebalancer: where a routed flow
    should migrate, as ``(path, links it leaves, links it joins)``, or
    None to stay put.

    The flow stays while its path's bottleneck ``level`` is below
    ``mark``, and otherwise moves only to a different path whose
    bottleneck times :data:`HEADROOM` is still below its own.  Every
    bottleneck is looked up once.
    """
    old_links = net.flow_links(flow)
    if old_links is None:
        current = math.inf
    else:  # the bottleneck loop of least_loaded
        get = level.get
        current = get(old_links[0], 0)
        for link in old_links:
            other = get(link, 0)
            if other > current:
                current = other
    if current < mark:
        return None
    best = least_loaded(net, flow, k, level, current)
    if best is None:
        return None
    path, links, value = best
    if value * HEADROOM < current and path != flow.switch_path:
        return path, old_links, links
    return None


class RebalancingKPathPolicy(PathPolicy):
    """Flowlet-style load balancing at the fluid level.

    New flows start on the least-loaded of the k shortest paths; at
    every simulation event active flows may migrate to a less loaded
    path.  This is the fluid-model equivalent of per-flowlet path
    re-selection: flowlet boundaries are frequent relative to flow
    lifetimes, so a flow tracks the currently-best path over time.
    """

    def __init__(self, k: int = 4) -> None:
        self.k = k
        self.reroutes = 0
        self._load: Dict[Tuple, int] = {}

    def _recount(self, net: FlowNet, flows: Sequence[Flow]) -> None:
        load = self._load
        load.clear()
        for flow in flows:
            if flow.done:
                continue
            links = net.flow_links(flow)
            if links is None:
                continue
            for link in links:
                load[link] = load.get(link, 0) + 1

    def choose(self, net: FlowNet, flow: Flow) -> Optional[List[str]]:
        best = least_loaded(net, flow, self.k, self._load)
        if best is None:
            return None
        path, links, _load = best
        for link in links:
            self._load[link] = self._load.get(link, 0) + 1
        return path

    def rebalance(self, net: FlowNet, flows: Sequence[Flow]) -> bool:
        self._recount(net, flows)
        load = self._load
        changed = False
        for flow in flows:
            if flow.done or flow.pinned or flow.switch_path is None:
                continue
            move = better_path(net, flow, self.k, load)
            if move is None:
                continue
            # Move the flow: update counts incrementally.
            flow.switch_path, old_links, new_links = move
            if old_links:
                for link in old_links:
                    load[link] = max(0, load.get(link, 0) - 1)
            for link in new_links:
                load[link] = load.get(link, 0) + 1
            self.reroutes += 1
            changed = True
        return changed


@dataclass
class ThroughputSeries:
    """Piecewise-constant rate samples: (t_start, t_end, bps)."""

    segments: List[Tuple[float, float, float]] = field(default_factory=list)

    def add(self, t0: float, t1: float, bps: float) -> None:
        if t1 > t0:
            self.segments.append((t0, t1, bps))

    def delivered_bits(self) -> float:
        """Integral of the series: total bits moved."""
        return sum((t1 - t0) * bps for t0, t1, bps in self.segments)


class FluidReport(ReportBase):
    """Fluid-engine counters behind the one report protocol."""

    __slots__ = ("data",)

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data

    def as_dict(self) -> Dict[str, Any]:
        return self.data

    def summary(self) -> str:
        flows = self.data["flows"]
        label = "hybrid" if self.data["kind"] == "hybrid-report" else "fluid"
        text = (
            f"{label} @ {self.data['now']:.6f}s: "
            f"{flows['active']} active / {flows['completed']} done "
            f"of {flows['total']} flows, "
            f"{self.data['recomputes']} recomputes "
            f"({self.data['recompute_skips']} skipped), "
            f"{self.data['epochs']} epochs"
        )
        promoted = self.data.get("promoted")
        if promoted is not None:
            boundary = self.data["boundary"]
            text += (
                f"; promoted {promoted['finished']} done "
                f"of {promoted['total']} "
                f"({promoted['stalled']} stalled), "
                f"{boundary['couplings']} couplings, "
                f"max rel err {boundary['consistency_max_rel_err']:.3g}"
            )
        return text


class FluidSimulator:
    """Event-driven fluid simulation over a :class:`FlowNet`."""

    def __init__(
        self,
        net: FlowNet,
        policy: PathPolicy,
        rebalance_interval_s: Optional[float] = None,
    ) -> None:
        self.net = net
        self.policy = policy
        self.rebalance_interval_s = rebalance_interval_s
        self._last_rebalance = -math.inf
        self.now = 0.0
        #: Every flow ever admitted (for post-run analysis).
        self.flows: List[Flow] = []
        #: Flows still moving bits (or stalled awaiting a route); the
        #: per-event scans run over this, never over ``self.flows``.
        self._active: List[Flow] = []
        self._fids = itertools.count(1)
        self._arrivals: List[Tuple[float, int, Flow]] = []
        self._injected: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self.completed: List[Flow] = []
        #: Route/demand set changed since the standing allocation was
        #: computed; cleared by ``_recompute``.
        self._dirty = True
        # Telemetry (surfaced via report()).
        self.recomputes = 0
        self.recompute_skips = 0
        self.epochs = 0
        self.arrivals_processed = 0
        self.injections_processed = 0

    # ------------------------------------------------------------------

    def add_flow(
        self,
        src: str,
        dst: str,
        size_bits: float,
        start_s: float = 0.0,
        demand_bps: float = math.inf,
        tag: Hashable = None,
    ) -> Flow:
        flow = Flow(
            fid=next(self._fids),
            src=src,
            dst=dst,
            size_bits=size_bits,
            start_s=start_s,
            demand_bps=demand_bps,
            tag=tag,
        )
        flow.remaining_bits = size_bits
        heapq.heappush(self._arrivals, (start_s, next(self._seq), flow))
        return flow

    def at(self, time_s: float, callback: Callable[[], None]) -> None:
        """Inject a network event (e.g. a link failure) at a time."""
        heapq.heappush(self._injected, (time_s, next(self._seq), callback))

    # ------------------------------------------------------------------
    # subclass hook points (identity/no-op here)

    def _admit(self, flow: Flow) -> None:
        """An arrival reached its start time: enter the active set."""
        self.flows.append(flow)
        self._active.append(flow)

    def _external_demands(
        self,
    ) -> Optional[Tuple[Mapping[Hashable, Sequence], Mapping[Hashable, float]]]:
        """Extra (routes, demands) folded into the max-min fill --
        the hybrid engine's frozen packet-measured demands."""
        return None

    def _revalidate_external(self) -> None:
        """Re-check externally simulated flows' routes after failures."""

    def _rebalance_population(self) -> Sequence[Flow]:
        """Flows the policy's load rebalancer sees."""
        return self._active

    def _post_recompute(
        self, routes: Mapping[Hashable, Sequence], rates: Mapping[Hashable, float]
    ) -> None:
        """Called with the fresh allocation (fluid + external rows)."""

    def _coupling_bound(self) -> Optional[float]:
        """Upper bound on this epoch's end, or None for unbounded."""
        return None

    def _couple_to(self, t: float) -> None:
        """Advance any coupled simulation exactly to time ``t``."""

    def _recordable_flows(self) -> Iterable[Flow]:
        """Flows whose rates the throughput recorder attributes."""
        return self._active

    # ------------------------------------------------------------------

    def _recompute(self) -> None:
        active = self._active
        flow_links = self.net.flow_links
        # Revalidate routes (failures may have killed some) and give
        # routeless flows another chance.
        for flow in active:
            if flow_links(flow) is None:
                flow.switch_path = None  # the policy sees a routeless flow
                flow.switch_path = self.policy.choose(self.net, flow)
                flow.stalled = flow.switch_path is None
        self._revalidate_external()
        # Rebalancing can be throttled: with thousands of flows the
        # policy's load scan is the dominant cost, and flowlet-scale
        # re-selection does not need to run at every fluid event.
        if (
            self.rebalance_interval_s is None
            or self.now - self._last_rebalance >= self.rebalance_interval_s
        ):
            self.policy.rebalance(self.net, self._rebalance_population())
            self._last_rebalance = self.now
        routes: Dict[Hashable, Sequence] = {}
        demands: Dict[Hashable, float] = {}
        for flow in active:
            links = flow_links(flow)
            if links is None:
                flow.rate_bps = 0.0
                flow.switch_path = None
                continue
            routes[flow.fid] = links
            if math.isfinite(flow.demand_bps):
                demands[flow.fid] = flow.demand_bps
        extra = self._external_demands()
        if extra is not None:
            ext_routes, ext_demands = extra
            routes.update(ext_routes)
            demands.update(ext_demands)
        rates = max_min_rates(routes, self.net.capacities, demands)
        for flow in active:
            flow.rate_bps = rates.get(flow.fid, 0.0)
        self.recomputes += 1
        self._dirty = False
        self._post_recompute(routes, rates)

    def _rebalance_due(self) -> bool:
        return (
            self.rebalance_interval_s is not None
            and self.now - self._last_rebalance >= self.rebalance_interval_s
        )

    def run(
        self,
        until: Optional[float] = None,
        record: Optional[Dict[Hashable, ThroughputSeries]] = None,
        record_key: Optional[Callable[[Flow], Hashable]] = None,
    ) -> None:
        """Run to completion (or ``until``).

        ``record``/``record_key`` collect per-group throughput series:
        each active flow's rate is attributed to ``record_key(flow)``.
        """
        horizon = until if until is not None else math.inf
        # Entering run() always recomputes once: flows queued via
        # add_flow since the last run, or net mutations made between
        # runs, must be visible before the first advance.
        self._dirty = True
        while True:
            self.epochs += 1
            if self._dirty or self._rebalance_due():
                self._recompute()
            else:
                self.recompute_skips += 1
            # Next event time.
            candidates: List[float] = []
            if self._arrivals:
                candidates.append(self._arrivals[0][0])
            if self._injected:
                candidates.append(self._injected[0][0])
            finish_candidates = []
            for flow in self._active:
                if flow.rate_bps <= 0:
                    continue
                finish_at = self.now + flow.remaining_bits / flow.rate_bps
                if finish_at <= self.now:
                    # The residue drains in less than one float ulp of
                    # simulated time: finish it now, or the clock could
                    # never advance past it.
                    flow.remaining_bits = 0.0
                    finish_at = self.now
                finish_candidates.append(finish_at)
            if finish_candidates:
                candidates.append(min(finish_candidates))
            bound = self._coupling_bound()
            if bound is not None:
                candidates.append(bound)
            if not candidates:
                break
            t_next = min(candidates)
            if t_next > horizon:
                self._advance(horizon, record, record_key)
                self._couple_to(horizon)
                self.now = horizon
                break
            self._advance(t_next, record, record_key)
            self._couple_to(t_next)
            self.now = t_next
            # Handle all events at t_next.
            while self._arrivals and self._arrivals[0][0] <= self.now + TIME_EPS:
                _t, _s, flow = heapq.heappop(self._arrivals)
                self._admit(flow)
                self.arrivals_processed += 1
                self._dirty = True
            while self._injected and self._injected[0][0] <= self.now + TIME_EPS:
                _t, _s, callback = heapq.heappop(self._injected)
                callback()
                self.injections_processed += 1
                self._dirty = True
            still: List[Flow] = []
            for flow in self._active:
                if (
                    flow.remaining_bits <= flow.size_bits * FINISH_EPS_REL
                    and flow.start_s <= self.now
                ):
                    flow.finished_at = self.now
                    flow.rate_bps = 0.0
                    self.completed.append(flow)
                    self._dirty = True
                else:
                    still.append(flow)
            self._active = still
            # Loop exit is handled at the top: with no arrivals, no
            # injected events and no flow able to finish (all stalled),
            # the candidate list comes up empty and we break.

    def _advance(self, t_next: float, record, record_key) -> None:
        dt = t_next - self.now
        if dt <= 0:
            return
        for flow in self._active:
            if flow.rate_bps > 0:
                flow.remaining_bits = max(0.0, flow.remaining_bits - flow.rate_bps * dt)
        if record is not None and record_key is not None:
            sums: Dict[Hashable, float] = {}
            for flow in self._recordable_flows():
                key = record_key(flow)
                if key is not None:
                    sums[key] = sums.get(key, 0.0) + flow.rate_bps
            for key, bps in sums.items():
                record.setdefault(key, ThroughputSeries()).add(self.now, t_next, bps)

    # ------------------------------------------------------------------

    def completion_time(self, tag: Hashable) -> Optional[float]:
        """Latest finish time among flows with this tag."""
        finished = [f.finished_at for f in self.flows if f.tag == tag and f.done]
        pending = [f for f in self.flows if f.tag == tag and not f.done]
        if pending or not finished:
            return None
        return max(finished)

    # ------------------------------------------------------------------

    def report(self) -> FluidReport:
        """Engine counters as a :class:`~repro.obs.report.ReportBase`."""
        active = self._active
        return FluidReport(
            {
                "kind": "fluid-report",
                "now": self.now,
                "policy": type(self.policy).__name__,
                "flows": {
                    "total": len(self.flows),
                    "active": len(active),
                    "completed": len(self.completed),
                    "stalled": sum(1 for f in active if f.stalled),
                    "queued_arrivals": len(self._arrivals),
                },
                "epochs": self.epochs,
                "recomputes": self.recomputes,
                "recompute_skips": self.recompute_skips,
                "arrivals_processed": self.arrivals_processed,
                "injections_processed": self.injections_processed,
            }
        )
