"""The seed flow-level engine, kept as oracles.

These are the bodies ``repro.flowsim.maxmin.max_min_rates``,
``repro.flowsim.simulator.RebalancingKPathPolicy`` and
``repro.flowsim.policies.EcnAwareKPathPolicy`` had before the flow-level
hot-loop rewrite (commit 7f7184a), copied verbatim: solver state over
every capacity, one ``route_links`` call per path-load evaluation, the
``min(key=...)``-then-recompute rebalancers.  They use only the public
``FlowNet.route_links`` / ``k_paths`` surface and share no code with the
engine, so ``test_flowsim_differential.py`` can demand engine ==
reference exactly.  One seed defect is kept on purpose: the solver leaks
``KeyError`` when no finite link constrains an uncapped flow (the engine
fixes it; the differential never generates that input).  Nothing under
``src/`` may import this module.
"""

import math
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.flowsim.maxmin import FairnessError
from repro.flowsim.network import FlowNet
from repro.flowsim.simulator import Flow, PathPolicy

LinkId = Hashable
FlowId = Hashable


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
    # flow -> {link: crossings}; insertion order follows the route.
    active: Dict[FlowId, Dict[LinkId, int]] = {}
    for flow, route in flow_routes.items():
        crossings: Dict[LinkId, int] = {}
        for link in route:
            if link not in capacities:
                raise FairnessError(f"flow {flow!r} crosses unknown link {link!r}")
            crossings[link] = crossings.get(link, 0) + 1
        active[flow] = crossings

    residual: Dict[LinkId, float] = {}
    users: Dict[LinkId, Dict[FlowId, int]] = {}
    weight: Dict[LinkId, int] = {}  # sum of users[link] multiplicities
    for link, cap in capacities.items():
        if cap <= 0:
            raise FairnessError(f"non-positive capacity on {link!r}")
        residual[link] = float(cap)
        users[link] = {}
        weight[link] = 0
    for flow, crossings in active.items():
        for link, mult in crossings.items():
            users[link][flow] = mult
            weight[link] += mult

    def freeze(flow: FlowId, rate: float) -> None:
        rates[flow] = rate
        for link, mult in active[flow].items():
            left = residual[link] - rate * mult
            if left < 0.0:
                # Fair shares divide by the same multiplicities freeze
                # subtracts, so only rounding dust can land here.
                if left < -1e-9 * float(capacities[link]):
                    raise FairnessError(
                        f"overcommitted link {link!r} by {-left!r} "
                        f"freezing flow {flow!r} at {rate!r}"
                    )
                left = 0.0
            residual[link] = left
            del users[link][flow]
            weight[link] -= mult
        del active[flow]

    # Flows with no capacity constraint at all freeze at their demand.
    for flow in list(active):
        if not active[flow]:
            freeze(flow, float(demands.get(flow, math.inf)))

    while active:
        # The fair increment every remaining flow could still take: a
        # flow crossing a link m times eats m units of weight there.
        bottleneck_share = math.inf
        for link, flows_on in users.items():
            if not flows_on:
                continue
            share = residual[link] / weight[link]
            if share < bottleneck_share:
                bottleneck_share = share
        # Demand-capped flows below the share freeze first.
        capped = [
            flow
            for flow in active
            if demands.get(flow, math.inf) <= bottleneck_share + 1e-15
        ]
        if capped:
            for flow in capped:
                freeze(flow, float(demands[flow]))
            continue
        if not math.isfinite(bottleneck_share):
            # No link constrains the rest (shouldn't happen: handled
            # above), freeze them at demand.
            for flow in list(active):
                freeze(flow, float(demands.get(flow, math.inf)))
            break
        # Freeze every flow on a bottleneck link at the share.
        froze_any = False
        for link in list(users):
            flows_on = users[link]
            if not flows_on:
                continue
            share = residual[link] / weight[link]
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


class RebalancingKPathPolicy(PathPolicy):
    """Flowlet-style load balancing at the fluid level.

    New flows start on the least-loaded of the k shortest paths; at
    every simulation event active flows may migrate to a less loaded
    path.  This is the fluid-model equivalent of per-flowlet path
    re-selection: flowlet boundaries are frequent relative to flow
    lifetimes, so a flow tracks the currently-best path over time.
    """

    def __init__(self, k: int = 4, headroom: float = 1.25) -> None:
        self.k = k
        #: A flow only migrates when the alternative is this much less
        #: loaded, which damps oscillation.
        self.headroom = headroom
        self.reroutes = 0
        self._load: Dict[Tuple, int] = {}

    def _path_load(self, net: FlowNet, src: str, path: List[str], dst: str) -> float:
        links = net.route_links(src, path, dst)
        if links is None:
            return math.inf
        return max(self._load.get(link, 0) for link in links)

    def _recount(self, net: FlowNet, flows: Sequence[Flow]) -> None:
        self._load.clear()
        for flow in flows:
            if flow.done or flow.switch_path is None:
                continue
            links = net.route_links(flow.src, flow.switch_path, flow.dst)
            if links is None:
                continue
            for link in links:
                self._load[link] = self._load.get(link, 0) + 1

    def choose(self, net: FlowNet, flow: Flow) -> Optional[List[str]]:
        paths = net.k_paths(flow.src, flow.dst, self.k)
        if not paths:
            return None
        best = min(
            paths, key=lambda p: self._path_load(net, flow.src, p, flow.dst)
        )
        links = net.route_links(flow.src, best, flow.dst)
        if links is not None:
            for link in links:
                self._load[link] = self._load.get(link, 0) + 1
        return best

    def rebalance(self, net: FlowNet, flows: Sequence[Flow]) -> bool:
        self._recount(net, flows)
        changed = False
        for flow in flows:
            if flow.done or flow.pinned or flow.switch_path is None:
                continue
            current_load = self._path_load(net, flow.src, flow.switch_path, flow.dst)
            paths = net.k_paths(flow.src, flow.dst, self.k)
            if not paths:
                continue
            best = min(
                paths, key=lambda p: self._path_load(net, flow.src, p, flow.dst)
            )
            best_load = self._path_load(net, flow.src, best, flow.dst)
            if best_load * self.headroom < current_load and best != flow.switch_path:
                # Move the flow: update counts incrementally.
                old_links = net.route_links(flow.src, flow.switch_path, flow.dst)
                if old_links:
                    for link in old_links:
                        self._load[link] = max(0, self._load.get(link, 0) - 1)
                new_links = net.route_links(flow.src, best, flow.dst)
                if new_links:
                    for link in new_links:
                        self._load[link] = self._load.get(link, 0) + 1
                flow.switch_path = best
                self.reroutes += 1
                changed = True
        return changed


class EcnAwareKPathPolicy(PathPolicy):
    """Steer flows away from links whose allocation is at capacity.

    ``mark_util`` is the tight-link threshold (the ECN mark analogue);
    ``headroom`` damps oscillation: a flow only migrates when the best
    alternative's bottleneck utilisation times ``headroom`` is still
    below its current path's.  Utilisation is measured from the flows'
    standing ``rate_bps`` (the previous max-min solve), which is the
    fluid equivalent of reacting to *recently observed* marks rather
    than to an oracle of the next allocation.
    """

    def __init__(
        self,
        k: int = 4,
        *,
        mark_util: float = 0.95,
        headroom: float = 1.25,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0.0 < mark_util <= 1.0:
            raise ValueError(f"mark_util must be in (0, 1], got {mark_util}")
        self.k = k
        self.mark_util = mark_util
        self.headroom = headroom
        self.reroutes = 0
        self._util: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------

    def _measure(self, net: FlowNet, flows: Sequence[Flow]) -> None:
        """Rebuild the per-link utilisation map from standing rates."""
        loads: Dict[Tuple, float] = {}
        for flow in flows:
            if flow.done or flow.switch_path is None or flow.rate_bps <= 0:
                continue
            links = net.route_links(flow.src, flow.switch_path, flow.dst)
            if links is None:
                continue
            for link in links:
                loads[link] = loads.get(link, 0.0) + flow.rate_bps
        self._util = {
            link: load / net.capacities[link]
            for link, load in loads.items()
            if net.capacities.get(link, 0.0) > 0
        }

    def _path_util(self, net: FlowNet, src: str, path: List[str], dst: str) -> float:
        links = net.route_links(src, path, dst)
        if links is None:
            return math.inf
        return max((self._util.get(link, 0.0) for link in links), default=0.0)

    # ------------------------------------------------------------------

    def choose(self, net: FlowNet, flow: Flow) -> Optional[List[str]]:
        paths = net.k_paths(flow.src, flow.dst, self.k)
        if not paths:
            return None
        return min(
            paths, key=lambda p: self._path_util(net, flow.src, p, flow.dst)
        )

    def rebalance(self, net: FlowNet, flows: Sequence[Flow]) -> bool:
        self._measure(net, flows)
        changed = False
        for flow in flows:
            if flow.done or flow.pinned or flow.switch_path is None:
                continue
            current = self._path_util(net, flow.src, flow.switch_path, flow.dst)
            if current < self.mark_util:
                continue  # unmarked path: stay put
            paths = net.k_paths(flow.src, flow.dst, self.k)
            if not paths:
                continue
            best = min(
                paths, key=lambda p: self._path_util(net, flow.src, p, flow.dst)
            )
            best_util = self._path_util(net, flow.src, best, flow.dst)
            if best_util * self.headroom < current and best != flow.switch_path:
                flow.switch_path = best
                self.reroutes += 1
                changed = True
        return changed
