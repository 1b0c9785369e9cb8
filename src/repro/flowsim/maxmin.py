"""Max-min fair bandwidth allocation (progressive filling).

The throughput experiments (aggregate leaf throughput, failover rate
curves, HiBench task times) run on a fluid flow model: at any instant,
every flow gets its max-min fair share of the links it crosses, the
standard steady-state abstraction of per-flow fair queueing + TCP.

:func:`max_min_rates` implements progressive filling with per-flow
demand caps: repeatedly find the most constrained link (smallest fair
share among its unfrozen flows), freeze those flows at that share, and
subtract.  Flows whose demand is below their would-be share freeze at
their demand instead.

A route may cross the same link more than once (a hairpin through an
uplink, a detour that re-enters a pod).  Such a flow consumes its rate
once *per crossing*, so a link's fair share divides its residual by the
total crossing count, not the distinct-flow count -- and freezing
subtracts ``rate * multiplicity``.  The two bookkeeping sides agree, so
residual capacity can only go negative by float dust; anything larger
raises :class:`FairnessError` instead of being silently clamped.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterator, List, Mapping, Optional, Sequence

__all__ = ["max_min_rates", "CapacityTable", "FairnessError"]

LinkId = Hashable
FlowId = Hashable


class FairnessError(ValueError):
    """Inconsistent inputs: unknown links, non-positive capacities,
    negative demands -- or an internal overcommit (a bug)."""


class CapacityTable(Mapping):
    """Link capacities, validated once and ranked in mapping order.

    Reads serve the mapping it was built from, unchanged.  ``rank``
    gives each link its position in that order, and ``links`` /
    ``capacity`` are indexed by it: the solver uses a crossed link's
    rank as its state slot, so sorting the crossed ranks recovers the
    mapping's order without a pass over every link.  A
    :class:`~repro.flowsim.network.FlowNet` builds one table for its
    lifetime; :func:`max_min_rates` builds one on entry for a plain
    mapping.
    """

    __slots__ = ("_caps", "links", "rank", "capacity")

    def __init__(self, capacities: Mapping[LinkId, float]) -> None:
        caps = dict(capacities)
        for link, cap in caps.items():
            if not cap > 0:  # also rejects NaN
                raise FairnessError(f"non-positive capacity on {link!r}")
        self._caps = caps
        #: rank -> the link's key object (the canonical id of that link)
        self.links: List[LinkId] = list(caps)
        self.rank: Dict[LinkId, int] = {link: i for i, link in enumerate(self.links)}
        #: rank -> capacity as a float
        self.capacity: List[float] = [float(cap) for cap in caps.values()]

    def __getitem__(self, link: LinkId) -> float:
        return self._caps[link]

    def get(self, link: LinkId, default=None):
        return self._caps.get(link, default)

    def __contains__(self, link: object) -> bool:
        return link in self._caps

    def __iter__(self) -> Iterator[LinkId]:
        return iter(self._caps)

    def __len__(self) -> int:
        return len(self._caps)


def max_min_rates(
    flow_routes: Mapping[FlowId, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
    demands: Optional[Mapping[FlowId, float]] = None,
) -> Dict[FlowId, float]:
    """Allocate max-min fair rates.

    ``flow_routes`` maps flow id -> the links it crosses (a link listed
    twice consumes the flow's rate twice); ``capacities`` maps link ->
    capacity (any consistent unit), ideally as a :class:`CapacityTable`
    so that it is validated once, not per call; ``demands`` optionally
    caps individual flows and must be non-negative.  Flows with empty
    routes get their demand (or +inf -- caller beware).  Returns flow id
    -> rate.
    """
    demands = demands or {}
    for flow, demand in demands.items():
        if not demand >= 0:  # also rejects NaN
            raise FairnessError(f"negative demand for flow {flow!r}: {demand!r}")
    # Every capacity is validated, crossed or not: a table already was.
    table = capacities if isinstance(capacities, CapacityTable) else CapacityTable(capacities)
    rank = table.rank
    rates: Dict[FlowId, float] = {}
    # Per-link state lives in lists indexed by the link's rank: link ids
    # are tuples, and a tuple re-hashes on every dict probe.  Only the
    # crossed ranks are ever read.
    users: List[Optional[List[FlowId]]] = [None] * len(rank)  # first-crossing order
    weight = [0] * len(rank)  # sum of the active users' multiplicities
    crossed: List[int] = []
    # flow -> the ranks it crosses, in first-crossing order; flows that
    # cross a link more than once keep {rank: crossings} on the side.
    active: Dict[FlowId, List[int]] = {}
    hairpins: Dict[FlowId, Dict[int, int]] = {}
    for flow, route in flow_routes.items():
        row: List[int] = []
        for link in route:
            slot = rank.get(link)
            if slot is None:
                raise FairnessError(f"flow {flow!r} crosses unknown link {link!r}")
            on_link = users[slot]
            if on_link is None:
                users[slot] = [flow]
                crossed.append(slot)
                row.append(slot)
            elif on_link[-1] is flow:  # hairpin: one more crossing
                extra = hairpins.setdefault(flow, {})
                extra[slot] = extra.get(slot, 1) + 1
            else:
                on_link.append(flow)
                row.append(slot)
            weight[slot] += 1
        active[flow] = row

    # The crossed ranks in order: the freeze pass below walks this list
    # and recomputes shares as it freezes, so the order ``capacities``
    # lists the links in decides which links freeze in which round.
    live = sorted(crossed)
    capacity = table.capacity
    residual = list(capacity)

    def freeze(flow: FlowId, rate: float) -> None:
        rates[flow] = rate
        extra = hairpins.get(flow) if hairpins else None
        for slot in active.pop(flow):
            mult = 1 if extra is None else extra.get(slot, 1)
            left = residual[slot] - rate * mult
            if left < 0.0:
                # Fair shares divide by the same multiplicities freeze
                # subtracts, so only rounding dust can land here.
                if left < -1e-9 * capacity[slot]:
                    raise FairnessError(
                        f"overcommitted link {table.links[slot]!r} by {-left!r} "
                        f"freezing flow {flow!r} at {rate!r}"
                    )
                left = 0.0
            residual[slot] = left
            weight[slot] -= mult

    # Flows with no capacity constraint at all freeze at their demand.
    for flow in [flow for flow, row in active.items() if not row]:
        freeze(flow, float(demands.get(flow, math.inf)))

    while active:
        # The fair increment every remaining flow could still take: a
        # flow crossing a link m times eats m units of weight there.
        # Links whose last user froze drop out of the scan for good.
        live = [slot for slot in live if weight[slot]]
        bottleneck_share = math.inf
        for slot in live:
            share = residual[slot] / weight[slot]
            if share < bottleneck_share:
                bottleneck_share = share
        # Demand-capped flows below the share freeze first.  Only a flow
        # that *has* a demand can be capped by it.
        if demands:
            limit = bottleneck_share + 1e-15
            capped = [
                flow for flow in active if flow in demands and demands[flow] <= limit
            ]
            if capped:
                for flow in capped:
                    freeze(flow, float(demands[flow]))
                continue
        if not math.isfinite(bottleneck_share):
            # No finite link constrains the rest: uncapped, so +inf.
            for flow in list(active):
                freeze(flow, float(demands.get(flow, math.inf)))
            break
        # Freeze every flow on a bottleneck link at the share.
        froze_any = False
        for slot in live:
            if not weight[slot]:  # its last user froze this round
                continue
            share = residual[slot] / weight[slot]
            if share <= bottleneck_share + 1e-15:
                # Users in first-crossing order, so the freeze sequence
                # is deterministic; frozen ones are skipped, not removed.
                for flow in users[slot]:
                    if flow in active:
                        freeze(flow, bottleneck_share)
                        froze_any = True
        if not froze_any:  # numerical corner: freeze everything
            for flow in list(active):
                freeze(flow, bottleneck_share)
    return rates
