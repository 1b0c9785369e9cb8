"""HybridEngine: fluid dataplane with a packet-level zoom region.

The engine *is* a :class:`~repro.flowsim.simulator.FluidSimulator` --
same clock, same event loop, same max-min epochs -- that diverts flows
matching a :class:`~repro.hybrid.roi.RegionOfInterest` into a
:class:`~repro.hybrid.packet_region.PacketRegion` instead of the fluid
active set.  The region is a self-contained FIFO-network kernel with
its own clock (``region.now``), advanced to the fluid clock at every
coupling; nothing here touches the netsim emulator.  The two fidelities
are coupled at epoch boundaries by an explicit consistency contract:

* **fluid -> packet**: after every max-min solve, the per-link sum of
  fluid-only rates becomes shaped background load on the region's
  hops (``PacketRegion.set_backgrounds``), so promoted frames
  serialise into exactly the residual bandwidth the fluid traffic
  leaves behind.
* **packet -> fluid**: each promoted flow appears in the max-min fill
  as an external row whose demand is frozen at its packet-*measured*
  throughput (x a small slack, floored well above zero so a transient
  zero-measurement cannot ratchet a flow down permanently).  Fluid
  flows therefore see promoted traffic at the rate it actually
  achieves, not at a modelled ideal.

Between fluid events the engine bounds each epoch at ``epoch_s`` (the
``_coupling_bound`` hook) so backgrounds and demands are refreshed on a
known cadence; the dirty-flag recompute gate means these extra epochs
cost one harvest, not a max-min solve.

Promoted flows are ``pinned``: the load-balancing policy counts their
links but never migrates them (their path is baked into a live frame
pipeline).  Failures still apply -- a promoted flow whose route dies is
re-chosen at the next epoch and its zoom re-chained; with no
replacement path it stalls exactly like a fluid flow.

The divergence between the fluid allocation granted to a promoted row
and its packet-measured throughput is tracked as the
``consistency_*_rel_err`` gauges (surfaced via ``report()``): small
values mean the two fidelities agree and the hybrid numbers are
trustworthy; large values mean the packet region is seeing
microbehaviour (burst collisions, serialization quantisation) the fluid
model cannot express -- which is precisely when zooming in was worth
it.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Mapping, Optional, Sequence, Tuple

from ..flowsim.network import FlowNet
from ..flowsim.simulator import (
    Flow,
    FluidReport,
    FluidSimulator,
    PathPolicy,
    RebalancingKPathPolicy,
)
from .packet_region import PacketRegion
from .roi import RegionOfInterest

__all__ = ["HybridEngine", "build_engine"]

#: Frozen-demand slack: a promoted flow may claim this multiple of its
#: last measured throughput from the fluid fill, so it can ramp back up
#: after transient contention instead of being locked at a low water
#: mark.
DEMAND_SLACK = 1.25

#: Frozen demands never drop below this fraction of the flow's
#: bottleneck-link capacity (anti-ratchet floor).
DEMAND_FLOOR_FRAC = 1e-3

#: Default coupling cadence of the fluid and packet clocks, seconds.
EPOCH_S = 1e-3

#: Link and NIC rate of the capacity graph :func:`build_engine` builds
#: when it is not handed one.
DEFAULT_BPS = 10e9


class _Promoted:
    """Engine-side bookkeeping for one promoted flow."""

    __slots__ = ("flow", "zoom", "links", "measured_bps", "fluid_bps")

    def __init__(self, flow: Flow) -> None:
        self.flow = flow
        self.zoom = None
        #: The route the zoom is chained on (a ``FlowNet.route_links``
        #: tuple, compared with the next one to spot a reroute).
        self.links: Optional[Tuple[Tuple, ...]] = None
        #: Packet-measured throughput over the last epoch (None until
        #: the first harvest, or after an epoch with no deliveries --
        #: "unknown" falls back to an uncapped fair share).
        self.measured_bps: Optional[float] = None
        #: What the last max-min solve granted this flow's frozen row.
        self.fluid_bps = 0.0


class HybridEngine(FluidSimulator):
    """Fluid simulator with an ROI promoted to packet fidelity."""

    def __init__(
        self,
        net: FlowNet,
        policy: PathPolicy,
        roi: Optional[RegionOfInterest] = None,
        rebalance_interval_s: Optional[float] = None,
        *,
        epoch_s: float = EPOCH_S,
    ) -> None:
        if not epoch_s > 0:  # also refuses NaN
            # A zero epoch re-arms the coupling bound at ``now`` forever.
            raise ValueError(f"epoch_s must be > 0, got {epoch_s}")
        super().__init__(net, policy, rebalance_interval_s)
        self.roi = roi if roi is not None else RegionOfInterest.empty()
        self.epoch_s = epoch_s
        self.region = PacketRegion(net)
        self._promoted: Dict[int, _Promoted] = {}
        self.promoted_total = 0
        self.promoted_finished = 0
        self.couplings = 0
        self.consistency_last_rel_err = 0.0
        self.consistency_max_rel_err = 0.0

    # ------------------------------------------------------------------
    # promotion

    def _should_promote(self, flow: Flow) -> bool:
        roi = self.roi
        if roi.is_empty:
            return False
        if roi.matches_flow(flow):
            return True
        if not roi.needs_route:
            return False
        # Link-level selectors need the route the flow would take.
        if flow.switch_path is None:
            flow.switch_path = self.policy.choose(self.net, flow)
        links = self.net.flow_links(flow)
        return links is not None and roi.matches_links(links)

    def _admit(self, flow: Flow) -> None:
        if not self._should_promote(flow):
            super()._admit(flow)
            return
        self.flows.append(flow)
        flow.pinned = True
        record = _Promoted(flow)
        self._promoted[flow.fid] = record
        self.promoted_total += 1
        if flow.switch_path is None:
            flow.switch_path = self.policy.choose(self.net, flow)
        links = self.net.flow_links(flow)
        if links is None:
            flow.switch_path = None
            flow.stalled = True
            return
        record.links = links
        record.zoom = self.region.start_flow(flow, links)

    # ------------------------------------------------------------------
    # fluid-epoch hooks

    def _revalidate_external(self) -> None:
        for record in self._promoted.values():
            flow = record.flow
            if flow.done:
                continue
            links = self.net.flow_links(flow)
            if links is None:
                flow.switch_path = None  # the policy sees a routeless flow
                flow.switch_path = self.policy.choose(self.net, flow)
                links = self.net.flow_links(flow)
            if links is None:
                flow.switch_path = None
                if not flow.stalled:
                    flow.stalled = True
                    record.links = None
                    if record.zoom is not None:
                        self.region.stall(record.zoom)
                continue
            if flow.stalled or record.zoom is None or record.links != links:
                record.links = links
                flow.stalled = False
                if record.zoom is None:
                    record.zoom = self.region.start_flow(flow, links)
                else:
                    self.region.rechain(record.zoom, links)

    def _external_demands(self):
        if not self._promoted:
            return None
        routes: Dict[Hashable, Sequence] = {}
        demands: Dict[Hashable, float] = {}
        net = self.net
        for fid, record in self._promoted.items():
            flow = record.flow
            if flow.done or flow.stalled or record.links is None:
                continue
            key = ("zoom", fid)
            routes[key] = record.links
            cap = min(net.capacities[link] for link in record.links)
            demand = flow.demand_bps
            if record.measured_bps is not None:
                demand = min(
                    demand,
                    max(record.measured_bps * DEMAND_SLACK,
                        cap * DEMAND_FLOOR_FRAC),
                )
            if math.isfinite(demand):
                demands[key] = demand
        return routes, demands

    def _rebalance_population(self) -> Sequence[Flow]:
        if not self._promoted:
            return self._active
        # Pinned promoted flows are counted as load but never migrated.
        return self._active + [
            r.flow for r in self._promoted.values() if not r.flow.done
        ]

    def _post_recompute(self, routes, rates) -> None:
        if not self._promoted:
            return
        background: Dict[Tuple, float] = {}
        for key, links in routes.items():
            if type(key) is tuple:  # ("zoom", fid) rows are not background
                continue
            rate = rates.get(key, 0.0)
            if rate <= 0:
                continue
            for link in links:
                background[link] = background.get(link, 0.0) + rate
        self.region.set_backgrounds(background)
        for fid, record in self._promoted.items():
            record.fluid_bps = rates.get(("zoom", fid), 0.0)

    def _coupling_bound(self) -> Optional[float]:
        if not self._promoted:
            return None
        if self.region.idle:
            # Everything promoted is stalled with nothing in flight;
            # bounding the epoch would spin the clock forever.
            return None
        return self.now + self.epoch_s

    def _couple_to(self, t: float) -> None:
        region = self.region
        last = region.now
        region.advance_to(t)
        if not self._promoted:
            return
        self.couplings += 1
        delivered, finished = region.harvest()
        finished_fids = {zoom.flow.fid for zoom, _t in finished}
        dt = t - last
        if dt > 0:
            for fid, bits in delivered.items():
                record = self._promoted.get(fid)
                if record is None or fid in finished_fids:
                    # A flow that finished mid-epoch delivered partial
                    # bits over the full window; that is not a rate.
                    continue
                measured = bits / dt
                record.measured_bps = measured
                # Trailing observable rate (throughput recording and
                # reports); the authoritative bits live in the region.
                record.flow.rate_bps = measured
                if record.fluid_bps > 0:
                    err = abs(measured - record.fluid_bps) / record.fluid_bps
                    self.consistency_last_rel_err = err
                    if err > self.consistency_max_rel_err:
                        self.consistency_max_rel_err = err
            for record in self._promoted.values():
                if record.flow.fid not in delivered and record.zoom is not None:
                    # No deliveries this epoch: measurement unknown, not
                    # zero -- an uncapped row ramps back up next epoch.
                    record.measured_bps = None
        else:
            # Zero-length epoch (two events at one instant): return the
            # harvested bits to the next real measurement window.
            for fid, bits in delivered.items():
                record = self._promoted.get(fid)
                if record is not None and record.zoom is not None:
                    record.zoom.delivered_epoch += bits
        for zoom, t_done in finished:
            flow = zoom.flow
            flow.finished_at = t_done  # packet-measured, mid-epoch FCT
            flow.rate_bps = 0.0
            flow.stalled = False
            self.completed.append(flow)
            self._promoted.pop(flow.fid, None)
            self.promoted_finished += 1
            self._dirty = True

    def _recordable_flows(self):
        if not self._promoted:
            return self._active
        return self._active + [
            r.flow for r in self._promoted.values() if not r.flow.done
        ]

    # ------------------------------------------------------------------

    def report(self) -> FluidReport:
        rep = super().report()
        data = rep.data
        data["kind"] = "hybrid-report"
        data["roi"] = self.roi.describe()
        data["promoted"] = {
            "active": len(self._promoted),
            "total": self.promoted_total,
            "finished": self.promoted_finished,
            "stalled": sum(
                1 for r in self._promoted.values() if r.flow.stalled
            ),
        }
        data["packet_region"] = self.region.stats()
        data["boundary"] = {
            "epoch_s": self.epoch_s,
            "couplings": self.couplings,
            "consistency_last_rel_err": self.consistency_last_rel_err,
            "consistency_max_rel_err": self.consistency_max_rel_err,
        }
        return rep


def build_engine(
    topology: Any,
    engine: str = "fluid",
    *,
    roi: Optional[RegionOfInterest] = None,
    policy: Optional[PathPolicy] = None,
    net: Optional[FlowNet] = None,
    rebalance_interval_s: Optional[float] = None,
    epoch_s: float = EPOCH_S,
) -> FluidSimulator:
    """Build a flow dataplane over a topology.

    ``engine`` selects the fidelity:

    * ``"fluid"``  -- plain :class:`FluidSimulator` (roi must be empty);
    * ``"hybrid"`` -- :class:`HybridEngine` promoting ``roi``
      (``RegionOfInterest.all()`` is the all-packet baseline), coupling
      the two clocks every ``epoch_s``.

    Without ``net``, every link and NIC runs at :data:`DEFAULT_BPS`.
    """
    if net is None:
        net = FlowNet(topology, link_bps=DEFAULT_BPS, host_bps=DEFAULT_BPS)
    if policy is None:
        policy = RebalancingKPathPolicy(k=4)
    if engine == "fluid":
        if roi is not None and not roi.is_empty:
            raise ValueError("a non-empty roi needs engine='hybrid'")
        return FluidSimulator(net, policy, rebalance_interval_s)
    if engine == "hybrid":
        return HybridEngine(
            net, policy, roi=roi, rebalance_interval_s=rebalance_interval_s,
            epoch_s=epoch_s,
        )
    raise ValueError(f"unknown engine {engine!r} (fluid|hybrid)")
