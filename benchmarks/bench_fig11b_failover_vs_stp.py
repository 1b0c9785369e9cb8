"""Figure 11(b): throughput recovery after a link cut, DumbNet vs STP.

Paper setup: traffic between two hosts on different leaf switches at
0.5 Gbps (the link is saturated); at t=0 one of the two spine-leaf
links in use is cut.  DumbNet hosts fail over to a cached alternative
path as soon as the stage-1 notification lands; STP must age out the
stale root information and walk the replacement port through
listening/learning.  "The DumbNet approach is almost 4.7x faster than
STP."

Both sides run packet-by-packet in the same emulator: a constant-bit-
rate stream, a mid-stream link cut, and per-bin received-throughput
accounting.  The STP bridge runs classic 802.1D timers scaled down by
100x (hello 20 ms / max-age 200 ms / forward-delay 150 ms) -- the
paper's own STP trace recovers within ~250 ms, which standard 2/20/15 s
timers cannot do, so their deployment necessarily ran fast timers too.
"""

import pytest

from repro.analysis import render_series
from repro.baselines import L2Host, StpBridge
from repro.baselines.stp import L2Frame
from repro.core.fabric import DumbNetFabric
from repro.faultinject import ChaosRunner, FaultSchedule
from repro.netsim import LinkSpec, Network, Tracer
from repro.topology import paper_testbed
from repro.workloads import CbrStream

from _util import publish

RATE_BPS = 0.5e9
PACKET_BYTES = 1450
FAIL_AT_S = 0.3
RUN_FOR_S = 1.2
BIN_S = 0.02

#: Classic 802.1D timers scaled by 100x.
STP_TIMERS = dict(hello_s=0.02, max_age_s=0.2, forward_delay_s=0.15)

#: The paper's notifications came from "a script on Arista switch to
#: monitor the port state" -- a polling loop, not the PHY ("these
#: packets can be sent even faster if it's done by hardware").  Its
#: latency dominates the paper's ~50 ms DumbNet recovery; we model the
#: polling delay explicitly so the comparison is like-for-like.
NOTIFY_SCRIPT_DELAY_S = 0.045


def recovery_delay(arrival_times, fail_at):
    """The outage duration: the largest inter-arrival gap in the
    post-failure window (losses may begin a moment after the cut, when
    the in-flight queue drains, so "first arrival after fail_at" would
    under-measure)."""
    window = sorted(t for t in arrival_times if t >= fail_at - 0.01)
    if len(window) < 2:
        return float("inf")
    return max(b - a for a, b in zip(window, window[1:]))


def run_dumbnet():
    spec = LinkSpec(bandwidth_bps=RATE_BPS, latency_s=5e-6)
    fabric = DumbNetFabric(
        paper_testbed(), controller_host="h0_0", seed=3,
        link_spec=spec,
        notify_script_delay_s=NOTIFY_SCRIPT_DELAY_S,
    )
    fabric.adopt_blueprint()
    fabric.warm_paths([("h2_0", "h3_0")])
    src, dst = fabric.agents["h2_0"], fabric.agents["h3_0"]
    stream = CbrStream(src, dst, rate_bps=RATE_BPS, packet_bytes=PACKET_BYTES)
    stream.start()
    base = fabric.now

    def bound_link(chaos):
        # Resolve, at fire time, the link the stream's flow is bound
        # to right now: cutting a pre-picked link could miss the flow.
        entry = chaos.agents["h2_0"].path_table.entry("h3_0")
        index = entry.flow_bindings.get(stream.flow_key, 0)
        if not 0 <= index < len(entry.primaries):
            index = 0
        port = entry.primaries[index].tags[0]
        peer = chaos.topology.peer("leaf2", port)
        return ("leaf2", port, peer.switch, peer.port)

    schedule = FaultSchedule().link_down(FAIL_AT_S, bound_link)
    ChaosRunner(fabric, schedule).install()
    fabric.run(until=base + RUN_FOR_S)
    stream.stop()
    arrivals = [t - base for t, _b in stream.arrivals]
    bins = stream.throughput_bins(BIN_S, until=RUN_FOR_S, start=base)
    return recovery_delay(arrivals, FAIL_AT_S), bins, fabric.loop.events_run


class _L2Cbr:
    """Self-clocked CBR sender over the classic Ethernet fabric."""

    def __init__(self, net, src, dst):
        self.net = net
        self.src = net.hosts[src]
        self.dst_name = dst
        self.running = True
        self.interval = PACKET_BYTES * 8 / RATE_BPS

    def start(self):
        self._tick()

    def _tick(self):
        if not self.running:
            return
        self.src.send_frame(self.dst_name, payload="cbr", payload_bytes=PACKET_BYTES)
        self.net.loop.schedule(self.interval, self._tick)


def run_stp():
    tracer = Tracer()
    spec = LinkSpec(bandwidth_bps=RATE_BPS, latency_s=5e-6)

    def make_bridge(name, ports, network):
        return StpBridge(name, ports, network.loop, tracer=tracer, **STP_TIMERS)

    def make_host(name, network):
        return L2Host(name, network.loop)

    net = Network(
        paper_testbed(), make_bridge, make_host,
        link_spec=spec, tracer=tracer,
    )
    for bridge in net.switches.values():
        bridge.start()
    net.run(until=2.0)  # converge

    base = net.now
    sender = _L2Cbr(net, "h2_0", "h3_0")
    sender.start()

    def cut():
        # Cut the spine link the tree actually uses for leaf2 traffic:
        # leaf2's root port.
        leaf2 = net.switches["leaf2"]
        port = leaf2.root_port
        peer = net.topology.peer("leaf2", port)
        net.fail_link("leaf2", port, peer.switch, peer.port)

    net.loop.schedule(FAIL_AT_S, cut)
    net.run(until=base + RUN_FOR_S)
    sender.running = False
    dst = net.hosts["h3_0"]
    arrivals = [t - base for t, _s, p in dst.delivered if p == "cbr"]
    # Bin the received bytes.
    bins = []
    t = 0.0
    while t < RUN_FOR_S:
        hi = t + BIN_S
        got = sum(1 for a in arrivals if t <= a < hi) * PACKET_BYTES * 8
        bins.append((t, got / BIN_S))
        t = hi
    return recovery_delay(arrivals, FAIL_AT_S), bins, net.loop.events_run


def test_fig11b_failover_vs_stp(benchmark):
    (dumb_delay, dumb_bins, dumb_events), (stp_delay, stp_bins, stp_events) = (
        benchmark.pedantic(
            lambda: (run_dumbnet(), run_stp()), rounds=1, iterations=1
        )
    )
    ratio = stp_delay / dumb_delay
    text = (
        f"Figure 11(b): recovery from a spine-leaf cut at t={FAIL_AT_S}s, "
        f"{RATE_BPS / 1e9:.1f} Gbps CBR stream\n\n"
        f"DumbNet recovery gap : {dumb_delay * 1e3:8.2f} ms\n"
        f"STP recovery gap     : {stp_delay * 1e3:8.2f} ms\n"
        f"speedup              : {ratio:8.1f}x   (paper: ~4.7x)\n"
        f"simulator events     : {dumb_events} (DumbNet) / "
        f"{stp_events} (STP)\n\n"
    )
    text += render_series(
        "DumbNet throughput",
        [(t, bps / 1e6) for t, bps in dumb_bins],
        x_label="t (s)",
        y_label="Mbps",
    )
    text += "\n" + render_series(
        "STP throughput",
        [(t, bps / 1e6) for t, bps in stp_bins],
        x_label="t (s)",
        y_label="Mbps",
    )
    publish("fig11b_failover_vs_stp", text)

    # Both recover eventually.
    assert dumb_delay != float("inf") and stp_delay != float("inf")
    # DumbNet is several times faster (paper: 4.7x with the same
    # script-driven notification latency modeled here).
    assert 3.0 < ratio < 12.0
    # Both streams return to (near) full rate by the end of the run.
    assert dumb_bins[-2][1] > 0.8 * RATE_BPS
    assert stp_bins[-2][1] > 0.8 * RATE_BPS
