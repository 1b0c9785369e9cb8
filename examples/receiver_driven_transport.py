#!/usr/bin/env python3
"""pHost-style receiver-driven transport on DumbNet (Section 3.1).

The paper notes DumbNet can host "existing source-routing based
optimizations such as pHost" with no switch support.  This example runs
a 5-into-1 incast two ways over the same slow ECN-marking fabric:

1. naive blast -- every sender fires simultaneously, the sink's
   downlink queue explodes (watch the ECN mark counters);
2. pHost -- senders announce, the *receiver* paces tokens at its own
   downlink rate, each token's data packet sprayed across the sender's
   cached paths; queues stay shallow.

Run:  python examples/receiver_driven_transport.py
"""

from repro.core.ecn import EcnSwitch
from repro.core.fabric import DumbNetFabric
from repro.core.phost import PHostEndpoint
from repro.netsim import LinkSpec
from repro.topology import leaf_spine

LINK_BPS = 1e9
SENDERS = ["h0_1", "h0_2", "h0_3", "h0_4", "h0_5"]
SINK = "h1_1"
PACKETS = 20


def build():
    topo = leaf_spine(2, 2, 6, num_ports=32)
    spec = LinkSpec(bandwidth_bps=LINK_BPS, latency_s=2e-6)
    fabric = DumbNetFabric(
        topo, controller_host="h0_0", seed=12,
        link_spec=spec, switch_cls=EcnSwitch,
    )
    fabric.adopt_blueprint()
    fabric.warm_paths(
        [(s, SINK) for s in SENDERS] + [(SINK, s) for s in SENDERS]
    )
    return fabric


def marks(fabric):
    return sum(sw.packets_marked for sw in fabric.network.switches.values())


def naive_blast():
    fabric = build()
    start = fabric.now
    for sender in SENDERS:
        for i in range(PACKETS):
            fabric.agents[sender].send_app(
                SINK, ("blast", sender, i), payload_bytes=1450,
                flow_key=(sender, SINK),
            )
    fabric.run_until_idle()
    sink = fabric.agents[SINK]
    got = sum(1 for _t, _s, p in sink.delivered if isinstance(p, tuple) and p[0] == "blast")
    last = max(t for t, _s, p in sink.delivered if isinstance(p, tuple) and p[0] == "blast")
    return got, last - start, marks(fabric)


def phost_incast():
    fabric = build()
    endpoints = {
        h: PHostEndpoint(fabric.agents[h], downlink_bps=LINK_BPS)
        for h in SENDERS + [SINK]
    }
    start = fabric.now
    done = []
    for sender in SENDERS:
        endpoints[sender].transfer(SINK, PACKETS, on_complete=done.append)
    fabric.run_until_idle()
    duration = max(s.duration_s for s in done)
    return sum(s.packets for s in done), duration, marks(fabric)


def main() -> None:
    ideal = SENDERS.__len__() * PACKETS * 1450 * 8 / LINK_BPS
    print(f"Incast: {len(SENDERS)} senders x {PACKETS} packets into {SINK}")
    print(f"ideal time at the sink's downlink: {ideal * 1e3:.2f} ms\n")

    got, duration, marked = naive_blast()
    print(f"naive blast : {got} packets in {duration * 1e3:7.2f} ms, "
          f"{marked} ECN-marked frames")

    got, duration, marked = phost_incast()
    print(f"pHost paced : {got} packets in {duration * 1e3:7.2f} ms, "
          f"{marked} ECN-marked frames")
    print("\nReceiver pacing keeps the queue (and the mark counter) flat —")
    print("and DumbNet sprays each token's packet over a different cached path.")


if __name__ == "__main__":
    main()
