"""Additional fluid-level path policies for the TE bake-off.

:mod:`repro.flowsim.simulator` ships the three policies the paper's
Figure 13 compares (flowlet-style rebalancing, ECMP hashing, single
shortest path).  The bake-off adds the two remaining mechanisms the
repo implements at packet level:

* :class:`SprayKPathPolicy` -- pHost-style per-packet spraying.  At
  fluid granularity a sprayed transfer is modeled as ``k`` equal
  subflows on rotating paths (the scenario runner does the splitting,
  keyed off :attr:`PathPolicy.subflows`); successive choices for the
  same (src, dst) pair rotate deterministically through the k shortest
  paths, so one request's pieces fan out exactly like sprayed packets.
* :class:`EcnAwareKPathPolicy` -- congestion-avoiding rerouting.  The
  fluid analogue of an ECN mark is a *tight link*: one whose standing
  max-min allocation is at (or near) capacity.  New flows pick the
  path whose bottleneck utilisation is lowest, and active flows on a
  marked path migrate when an alternative has materially more
  headroom.  All state derives from the last allocation -- the same
  "recent marks" recency an EcnRerouter window gives at packet level.

Both expose a ``reroutes`` counter (as all policies now do) so the
scorecard can report path-churn alongside completion times.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .network import FlowNet
from .simulator import Flow, PathPolicy, better_path, least_loaded

__all__ = ["SprayKPathPolicy", "EcnAwareKPathPolicy"]

#: Utilisation at which a link counts as marked (tight).
MARK_UTIL = 0.95


class SprayKPathPolicy(PathPolicy):
    """Per-packet spraying, fluid approximation.

    ``subflows = k`` tells the scenario runner to split every request
    into k pieces; ``choose`` rotates each (src, dst) pair through its
    k shortest paths so the pieces land on distinct paths.  There is no
    rebalancing: spraying has no per-flow path memory to adjust.
    """

    def __init__(self, k: int = 4) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.subflows = k
        self._next: Dict[Tuple[str, str], int] = {}

    def choose(self, net: FlowNet, flow: Flow) -> Optional[List[str]]:
        found = net.candidates(flow.src, flow.dst, self.k)
        if not found:
            return None
        index = self._next.get((flow.src, flow.dst), 0)
        self._next[(flow.src, flow.dst)] = (index + 1) % len(found)
        return found[index % len(found)][0]


class EcnAwareKPathPolicy(PathPolicy):
    """Steer flows away from links whose allocation is at capacity.

    :data:`MARK_UTIL` is the tight-link threshold (the ECN mark
    analogue); :data:`~repro.flowsim.simulator.HEADROOM` damps
    oscillation: a flow only migrates when the best alternative's
    bottleneck utilisation times it is still below its current path's.
    Utilisation is measured from the flows' standing ``rate_bps`` (the
    previous max-min solve), which is the fluid equivalent of reacting
    to *recently observed* marks rather than to an oracle of the next
    allocation.
    """

    def __init__(self, k: int = 4) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.reroutes = 0
        self._util: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------

    def _measure(self, net: FlowNet, flows: Sequence[Flow]) -> None:
        """Rebuild the per-link utilisation map from standing rates."""
        loads: Dict[Tuple, float] = {}
        for flow in flows:
            if flow.done or flow.rate_bps <= 0:
                continue
            links = net.flow_links(flow)
            if links is None:
                continue
            for link in links:
                loads[link] = loads.get(link, 0.0) + flow.rate_bps
        self._util = {
            link: load / net.capacities[link]
            for link, load in loads.items()
            if net.capacities.get(link, 0.0) > 0
        }

    # ------------------------------------------------------------------

    def choose(self, net: FlowNet, flow: Flow) -> Optional[List[str]]:
        best = least_loaded(net, flow, self.k, self._util)
        return None if best is None else best[0]

    def rebalance(self, net: FlowNet, flows: Sequence[Flow]) -> bool:
        self._measure(net, flows)
        changed = False
        for flow in flows:
            if flow.done or flow.pinned or flow.switch_path is None:
                continue
            # An unmarked path (bottleneck below MARK_UTIL) stays put.
            move = better_path(net, flow, self.k, self._util, MARK_UTIL)
            if move is not None:
                flow.switch_path = move[0]
                self.reroutes += 1
                changed = True
        return changed
