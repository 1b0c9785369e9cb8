#!/usr/bin/env python3
"""Failure handling, end to end: DumbNet's two stages vs classic STP.

Reproduces the Section 4.2 / Figure 11 story on the paper's testbed
topology (2 spines, 5 leaves, 27 hosts):

* a CBR stream runs between two leaves while a spine uplink is cut;
* DumbNet: the switch broadcasts the failure, hosts flood it, and the
  sender fails over from its cached path graph -- milliseconds;
* STP: the same cut on a classic Ethernet build of the same topology
  must re-elect port roles and walk forward-delay timers.

Run:  python examples/failure_recovery.py
"""

from repro.baselines import L2Host, StpBridge
from repro.core.fabric import DumbNetFabric
from repro.netsim import LinkSpec, Network, Tracer
from repro.topology import paper_testbed
from repro.workloads import CbrStream

RATE = 0.5e9
FAIL_AT = 0.3
RUN_FOR = 1.2
FORWARD_DELAY_S = 0.15


def dumbnet_side():
    spec = LinkSpec(bandwidth_bps=RATE, latency_s=5e-6)
    fabric = DumbNetFabric(
        paper_testbed(), controller_host="h0_0", seed=1,
        link_spec=spec,
    )
    fabric.adopt_blueprint()
    fabric.warm_paths([("h2_0", "h3_0")])
    src = fabric.agents["h2_0"]
    stream = CbrStream(src, fabric.agents["h3_0"], rate_bps=RATE)
    stream.start()
    base = fabric.now

    def cut():
        entry = src.path_table.entry("h3_0")
        index = entry.flow_bindings.get(stream.flow_key, 0)
        used = entry.primaries[index]
        port = used.tags[0]
        peer = fabric.topology.peer("leaf2", port)
        print(f"  cutting leaf2-{port} <-> {peer} at t={FAIL_AT}s")
        fabric.fail_link("leaf2", port, peer.switch, peer.port)

    fabric.loop.schedule(FAIL_AT, cut)
    fabric.run(until=base + RUN_FOR)
    stream.stop()
    arrivals = [t - base for t, _ in stream.arrivals]
    news = fabric.tracer.first_time_per_node("news-received")
    patch = fabric.tracer.first_time_per_node("patch-received")
    return arrivals, news, patch, base


def stp_side():
    spec = LinkSpec(bandwidth_bps=RATE, latency_s=5e-6)
    tracer = Tracer()

    def bridge(name, ports, network):
        return StpBridge(
            name, ports, network.loop, tracer=tracer,
            hello_s=0.02, max_age_s=0.2, forward_delay_s=FORWARD_DELAY_S,
        )

    def host(name, network):
        return L2Host(name, network.loop)

    net = Network(paper_testbed(), bridge, host, link_spec=spec, tracer=tracer)
    for b in net.switches.values():
        b.start()
    net.run(until=2.0)
    base = net.now
    interval = 1450 * 8 / RATE
    state = {"on": True}

    def tick():
        if not state["on"]:
            return
        net.hosts["h2_0"].send_frame("h3_0", payload="cbr", payload_bytes=1450)
        net.loop.schedule(interval, tick)

    tick()

    def cut():
        leaf2 = net.switches["leaf2"]
        port = leaf2.root_port
        peer = net.topology.peer("leaf2", port)
        net.fail_link("leaf2", port, peer.switch, peer.port)

    net.loop.schedule(FAIL_AT, cut)
    net.run(until=base + RUN_FOR)
    state["on"] = False
    return [t - base for t, _s, p in net.hosts["h3_0"].delivered if p == "cbr"]


def recovery_gap(arrivals, fail_at):
    """The outage: largest inter-arrival gap in the post-failure window."""
    window = sorted(t for t in arrivals if t >= fail_at - 0.01)
    if len(window) < 2:
        return float("inf")
    return max(b - a for a, b in zip(window, window[1:]))


def main() -> None:
    print("DumbNet side:")
    arrivals, news, patch, base = dumbnet_side()
    gap = recovery_gap(arrivals, FAIL_AT)
    news_ms = sorted((t - base - FAIL_AT) * 1e3 for t in news.values())
    patch_ms = sorted((t - base - FAIL_AT) * 1e3 for t in patch.values())
    print(f"  stage 1 (failure msg) reached {len(news_ms)} hosts, "
          f"median {news_ms[len(news_ms) // 2]:.2f} ms, max {news_ms[-1]:.2f} ms")
    print(f"  stage 2 (topology patch) reached {len(patch_ms)} hosts, "
          f"median {patch_ms[len(patch_ms) // 2]:.2f} ms, max {patch_ms[-1]:.2f} ms")
    print(f"  traffic gap: {gap * 1e3:.2f} ms")

    print("\nSTP side (classic Ethernet, 100x-scaled 802.1D timers):")
    stp_arrivals = stp_side()
    stp_gap = recovery_gap(stp_arrivals, FAIL_AT)
    print(f"  traffic gap: {stp_gap * 1e3:.2f} ms")
    print(f"\nDumbNet recovered {stp_gap / gap:.1f}x faster (paper: ~4.7x)")
    # Both stages reach every host (the patch all but the controller that
    # floods it), the sender fails over within milliseconds, and STP
    # walks its listening and learning forward delays first.
    assert len(news_ms) == 27 and len(patch_ms) == 26, (news_ms, patch_ms)
    assert gap < 0.01, gap
    assert stp_gap >= 2 * FORWARD_DELAY_S, stp_gap


if __name__ == "__main__":
    main()
