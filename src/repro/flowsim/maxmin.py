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
from typing import Dict, Hashable, List, Mapping, Optional, Sequence

__all__ = ["max_min_rates", "FairnessError"]

LinkId = Hashable
FlowId = Hashable


class FairnessError(ValueError):
    """Inconsistent inputs: unknown links, non-positive capacities,
    negative demands -- or an internal overcommit (a bug)."""


def max_min_rates(
    flow_routes: Mapping[FlowId, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
    demands: Optional[Mapping[FlowId, float]] = None,
) -> Dict[FlowId, float]:
    """Allocate max-min fair rates.

    ``flow_routes`` maps flow id -> the links it crosses (a link listed
    twice consumes the flow's rate twice); ``capacities`` maps link ->
    capacity (any consistent unit); ``demands`` optionally caps
    individual flows and must be non-negative.  Flows with empty routes
    get their demand (or +inf -- caller beware).  Returns flow id ->
    rate.
    """
    demands = demands or {}
    for flow, demand in demands.items():
        if not demand >= 0:  # also rejects NaN
            raise FairnessError(f"negative demand for flow {flow!r}: {demand!r}")
    rates: Dict[FlowId, float] = {}
    # Per-link state lives in lists indexed by *slot*, handed out in
    # first-crossing order: link ids are tuples, and a tuple re-hashes on
    # every dict probe.  Links no route crosses get no state at all.
    slot_of: Dict[LinkId, int] = {}
    users: List[Dict[FlowId, int]] = []  # slot -> {flow: crossings}
    weight: List[int] = []  # slot -> sum of users[slot] multiplicities
    # flow -> the slots it crosses, in first-crossing order.
    active: Dict[FlowId, List[int]] = {}
    for flow, route in flow_routes.items():
        row: List[int] = []
        for link in route:
            slot = slot_of.get(link)
            if slot is None:
                if link not in capacities:
                    raise FairnessError(f"flow {flow!r} crosses unknown link {link!r}")
                slot = slot_of[link] = len(users)
                users.append({})
                weight.append(0)
            on_link = users[slot]
            if flow in on_link:  # hairpin: one more crossing
                on_link[flow] += 1
            else:
                on_link[flow] = 1
                row.append(slot)
            weight[slot] += 1
        active[flow] = row

    # Every capacity is validated, crossed or not.
    for link, cap in capacities.items():
        if not cap > 0:  # also rejects NaN
            raise FairnessError(f"non-positive capacity on {link!r}")
    # The crossed slots in the order ``capacities`` lists their links: the
    # freeze pass below walks this list and recomputes shares as it
    # freezes, so that order decides which links freeze in which round.
    live = [slot for slot in map(slot_of.get, capacities) if slot is not None]
    capacity = [float(capacities[link]) for link in slot_of]
    residual = list(capacity)

    def freeze(flow: FlowId, rate: float) -> None:
        rates[flow] = rate
        for slot in active.pop(flow):
            mult = users[slot].pop(flow)
            left = residual[slot] - rate * mult
            if left < 0.0:
                # Fair shares divide by the same multiplicities freeze
                # subtracts, so only rounding dust can land here.
                if left < -1e-9 * capacity[slot]:
                    link = list(slot_of)[slot]  # slots are insertion ranks
                    raise FairnessError(
                        f"overcommitted link {link!r} by {-left!r} "
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
            flows_on = users[slot]
            if not flows_on:
                continue
            share = residual[slot] / weight[slot]
            if share <= bottleneck_share + 1e-15:
                # Dict order = first-crossing order, so the freeze
                # sequence is deterministic (the old set iterated in
                # str-hash order, randomized across runs).
                for flow in list(flows_on):
                    freeze(flow, bottleneck_share)
                    froze_any = True
        if not froze_any:  # numerical corner: freeze everything
            for flow in list(active):
                freeze(flow, bottleneck_share)
    return rates
