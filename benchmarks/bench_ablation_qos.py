"""Ablation: priority queueing for control traffic (Section 3.1).

The paper keeps multi-queue/priority as a hardware feature that "will
not change the stateless and configuration-free nature" of the switch.
This ablation shows what it buys the failure protocol: under heavy data
congestion, stage-1 failure notifications on plain FIFO switches queue
behind data frames, while on priority-queueing switches they overtake
everything.

Setup: the testbed at 100 Mbps links, five hosts on four other leaves
blasting into one victim host on leaf0, then a far-side link fails.
Metric: worst-case stage-1 notification delay across hosts.

The victim's downlink is the congested egress, and it is the one hop
the news cannot route around: a congested leaf *uplink* would not do,
because the flood reaches every leaf over both spines and a host keeps
the first copy it hears, which takes the uncongested direction.
"""

import pytest

from repro.analysis import render_table
from repro.core.fabric import DumbNetFabric
from repro.core.qos import QosSwitch
from repro.core.switch import DumbSwitch
from repro.netsim import LinkSpec
from repro.topology import paper_testbed

from _util import publish

LINK_BPS = 100e6
BLAST_PACKETS = 100


def stage1_delay(switch_cls):
    spec = LinkSpec(bandwidth_bps=LINK_BPS, latency_s=5e-6)
    fabric = DumbNetFabric(
        paper_testbed(), controller_host="h0_0", seed=6,
        link_spec=spec, switch_cls=switch_cls,
    )
    fabric.adopt_blueprint()
    # Incast onto one victim downlink: senders on four different leaves
    # reach leaf0 over both spines, so the egress toward h0_1 is fed
    # faster than it drains (a host NIC alone cannot congest a switch
    # port -- it feeds at line rate).
    pairs = [(f"h{1 + i % 4}_{i // 4}", "h0_1") for i in range(5)]
    fabric.warm_paths(pairs)
    # Saturate the fabric: everyone blasts at once, then the cut lands
    # while queues are deep.
    for src, dst in pairs:
        for i in range(BLAST_PACKETS):
            fabric.loop.schedule(
                0.0, fabric.agents[src].send_app, dst,
                ("blast", src, i), 1450, (src, dst),
            )
    fabric.tracer.clear()
    # Cut once the victim downlink queue is deep (the two spines feed
    # it faster than it drains).
    fail_delay = 0.02
    fail_at = fabric.now + fail_delay
    fabric.loop.schedule(fail_delay, fabric.fail_link, "leaf4", 1, "spine0", 5)
    fabric.run_until_idle()
    news = fabric.tracer.first_time_per_node("news-received")
    if not news:
        return float("inf")
    return max(t - fail_at for t in news.values())


def test_ablation_qos_notification_priority(benchmark):
    results = benchmark.pedantic(
        lambda: {
            "FIFO (DumbSwitch)": stage1_delay(DumbSwitch),
            "Priority (QosSwitch)": stage1_delay(QosSwitch),
        },
        rounds=1,
        iterations=1,
    )
    rows = [
        (name, f"{delay * 1e3:.2f}")
        for name, delay in results.items()
    ]
    text = render_table(
        ["Egress discipline", "Worst stage-1 delay under load (ms)"],
        rows,
        title=(
            "Ablation (Section 3.1): failure-notification latency under "
            f"congestion, {LINK_BPS / 1e6:.0f} Mbps links, testbed."
        ),
    )
    publish("ablation_qos", text)

    fifo = results["FIFO (DumbSwitch)"]
    qos = results["Priority (QosSwitch)"]
    assert qos < fifo  # priority strictly helps under load
    # The FIFO copy waits out the victim downlink's backlog (~12 ms);
    # the priority copy overtakes it (propagation only, ~0.2 ms).
    assert fifo > 10 * qos
    assert fifo != float("inf") and qos != float("inf")
