"""Golden finish times for the flow-level engine, beyond the e2e cells.

``tests/test_path_golden.py`` pins the flowlet cell and the end-to-end
benchmark pins ``fluid_websearch`` / ``packet_incast``; neither runs the
ECN, spray, hashed or single-path policies, a cable failing under load,
or the hybrid engine's revalidation of promoted flows.  These cells do,
on the same 100-flow websearch trace, so "the engine got faster, not
different" is checkable by ``pytest`` alone.  The constants were computed
at the commit *before* the flow-level hot-loop rewrite (7f7184a) and must
never be re-pinned by a change that claims only host time.

The packet-region constants at the bottom (an all-promoted incast cell in
the e2e workload's spelling, and a partial-ROI cell whose promoted flows
share core links with fluid ones) were computed at the commit before the
region became a FIFO-merge kernel (0fa2b3b), under the same rule.
"""

import hashlib
import random

import pytest

from repro.core.te import make_flow_policy
from repro.flowsim import FlowNet
from repro.hybrid import PacketRegion, RegionOfInterest, build_engine
from repro.topology import fat_tree, leaf_spine
from repro.workloads import IncastSweep, Scenario, TraceReplay, replay_program, run_scenario

LINK_BPS = 2.5e9
SEED = 4
#: The one core cable that carries a flow of every policy during the outage.
CORE_CABLE = ("core0", 5, "agg4_0", 1)
#: The hybrid cell promotes every fifth request of the trace.
PROMOTED_TAGS = tuple(("flow", index) for index in range(0, 100, 5))

#: te -> (undisturbed digest, digest with the cable down from 30 % to
#: 60 % of the undisturbed run)
FINISH_DIGESTS = {
    "flowlet": (
        "d6c411d50cef588858c2347eb116cc2b",
        "e390911d878ea08815ecc8138d6da88e",
    ),
    "ecmp": (
        "5fe1cf9b82035babc1991b1982f33780",
        "c34c2e901201ccc79b5656b8f1bb94fd",
    ),
    "spray": (
        "bf3d9ed1d2dcaf02ce1bb8a58253c9fb",
        "468c12e9f8def26058d813c7ed349e20",
    ),
    "ecn": (
        "c20c841a6d588e11a870a24a7bdf2ee3",
        "fee357cd90363d59f73f9b3ad4ce2689",
    ),
    "single": (
        "21fdbca4b115c413ef61d1fb790bea02",
        "78a8a5070cae294edfabe4e2fa4faff6",
    ),
}
HYBRID_FAULT_DIGEST = "5ae6708a59cab2a7941e6549ca5b52bf"
#: (finish digest, region events_run, region frames_delivered)
INCAST_ALL_PROMOTED = ("f425ef8218180932fb903532eedd4223", 25_530, 8_280)
HYBRID_SHAPED = ("5d83612667b26ccad14d0ab8616e2861", 119_190, 19_938)


def _blake2(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


def run_cell(te, engine="fluid", roi=None, outage=None):
    """The websearch cell of ``test_path_golden`` with an optional
    ``(down_s, up_s)`` outage of :data:`CORE_CABLE` injected via
    ``sim.at``; returns ``(sim, flows, duration_s)``."""
    topology = fat_tree(8)
    net = FlowNet(topology, link_bps=LINK_BPS)
    policy = make_flow_policy(te)
    sim = build_engine(topology, engine, roi=roi, policy=policy, net=net)
    if outage is not None:
        down_s, up_s = outage
        sim.at(down_s, lambda: net.fail_link(*CORE_CABLE))
        sim.at(up_s, lambda: net.restore_link(*CORE_CABLE))
    program = TraceReplay("websearch", load_bps=50e9, duration_s=0.0226).program(
        topology, rng=random.Random(SEED)
    )
    result = replay_program(sim, program, subflows=policy.subflows)
    return sim, result.flows, result.duration_s


def finish_digest(sim, flows) -> str:
    """Every flow's finish time and final path, plus the reroute count
    (an outage the policy routes around at no cost in completion time
    still has to show)."""
    rows = [(f.src, f.dst, f.size_bits, f.finished_at, f.switch_path) for f in flows]
    return _blake2((rows, sim.policy.reroutes))


@pytest.mark.parametrize("te", sorted(FINISH_DIGESTS))
def test_policy_finish_times_are_pinned_with_and_without_an_outage(te):
    undisturbed, faulted = FINISH_DIGESTS[te]
    sim, flows, duration = run_cell(te)
    assert len(flows) == 100 * sim.policy.subflows
    assert finish_digest(sim, flows) == undisturbed
    sim, flows, _duration = run_cell(te, outage=(0.3 * duration, 0.6 * duration))
    assert sim.injections_processed == 2
    assert finish_digest(sim, flows) == faulted
    assert faulted != undisturbed  # the outage really moved traffic


def test_hybrid_tag_roi_finish_times_are_pinned_under_an_outage():
    _sim, _flows, duration = run_cell("flowlet")
    sim, flows, _duration = run_cell(
        "flowlet",
        engine="hybrid",
        roi=RegionOfInterest(tags=PROMOTED_TAGS),
        outage=(0.3 * duration, 0.6 * duration),
    )
    assert sim.promoted_total == len(PROMOTED_TAGS)
    assert sim.promoted_finished == len(PROMOTED_TAGS)
    assert finish_digest(sim, flows) == HYBRID_FAULT_DIGEST


def test_all_promoted_incast_cell_is_pinned():
    """``packet_incast``'s shape (hybrid, roi=all, ecmp on a leaf-spine)
    at a tenth of its size: every hop completion runs in the region."""
    run = run_scenario(
        Scenario(
            IncastSweep(fanins=(4, 8), bits_per_sender=4e6, rounds_per_fanin=2),
            te="ecmp",
            engine="hybrid",
            roi=RegionOfInterest.all(),
            topology=leaf_spine(2, 2, 10),
            link_bps=LINK_BPS,
            seed=7,
        ),
        on_stall="record",
    )
    flows = run.result.flows
    assert len(flows) == 24 and all(f.done for f in flows)
    stats = run.sim.region.stats()
    digest = _blake2([(f.src, f.dst, f.size_bits, f.finished_at) for f in flows])
    assert (digest, stats["events_run"], stats["frames_delivered"]) == INCAST_ALL_PROMOTED


def test_hybrid_cell_with_shaped_core_links_is_pinned(monkeypatch):
    """Promoted and fluid flows share core links, so the region's hops
    serialise into a residual that moves with every max-min solve."""
    shaped = set()
    set_backgrounds = PacketRegion.set_backgrounds

    def spy(region, loads_bps):
        set_backgrounds(region, loads_bps)
        shaped.update(
            link for link, bps in loads_bps.items() if bps and link in region._hops
        )

    monkeypatch.setattr(PacketRegion, "set_backgrounds", spy)
    sim, flows, _duration = run_cell(
        "flowlet", engine="hybrid", roi=RegionOfInterest(tags=PROMOTED_TAGS)
    )
    assert sum(1 for link in shaped if link[1].startswith("core")) >= 10
    stats = sim.region.stats()
    assert stats["background_links"] > 0  # still shaped after the last solve
    assert (
        finish_digest(sim, flows), stats["events_run"], stats["frames_delivered"]
    ) == HYBRID_SHAPED
