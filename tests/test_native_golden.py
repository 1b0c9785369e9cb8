"""Golden traces of the native packet drivers.

``measure_rtts`` and ``drive_incast_packets`` arm all their timers up
front (one :meth:`EventLoop.call_batch` each); these digests pin the
exact interleaving that produces -- every RTT and every delivery time
repr'd to the last bit, the event count and the final clock -- as
recorded at commit 30d9219, when each timer was its own heap entry.
"""

import hashlib

import pytest

from helpers import IncastSpec, drive_incast_packets
from repro.core.fabric import DumbNetFabric
from repro.netsim import LinkSpec
from repro.topology import fat_tree
from repro.workloads import measure_rtts

CONTROLLER = "h0_0_0"


def _digest(rows):
    return hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()


def test_measure_rtts_on_a_warm_fat_tree():
    topology = fat_tree(4)
    fabric = DumbNetFabric(topology, controller_host=CONTROLLER, seed=7)
    fabric.adopt_blueprint()
    hosts = [h for h in topology.hosts if h != CONTROLLER]
    pairs = [(a, b) for a in hosts for b in hosts if a != b][::3]
    fabric.warm_paths(pairs + [(b, a) for a, b in pairs])
    # A stagger that is not a divisor of the gap: the batch must sort.
    samples = measure_rtts(
        fabric, pairs=pairs, packets_per_pair=6, gap_s=200e-6, stagger_s=30e-6
    )
    assert len(samples) == 420
    assert _digest([(s.src, s.dst, s.seq, s.rtt_s, s.cold_start) for s in samples]) == (
        "e611a24f5db6f9150e4bff54b73f1a745ec9e84fed8c8bf96c00af1422251e1c"
    )
    assert fabric.loop.events_run == 15416
    assert fabric.now == 0.05808302620583104  # exact, not approx


@pytest.mark.parametrize("gap_s, stagger_s", [(200e-6, 100e-6), (200e-6, 0.0), (0.0, 0.0)])
def test_measure_rtts_merge_fires_like_one_call_after_per_ping(gap_s, stagger_s):
    """The lazy merge of the pings' runs against every ping armed by its
    own ``call_after`` in listing order (pair-major): a stagger that puts
    pings of different pairs at one instant, the unstaggered run, and a
    zero gap that puts every ping at one instant."""

    def run(per_item):
        topology = fat_tree(4)
        fabric = DumbNetFabric(topology, controller_host=CONTROLLER, seed=5)
        fabric.adopt_blueprint()
        hosts = [h for h in topology.hosts if h != CONTROLLER]
        pairs = [(a, b) for a in hosts for b in hosts if a != b][::7]
        fabric.warm_paths(pairs + [(b, a) for a, b in pairs])
        loop = fabric.loop
        if per_item:
            def call_batch(items):
                listed = sorted(items, key=lambda item: (pairs.index(item[2][:2]), item[2][2]))
                for delay, callback, args in listed:
                    loop.call_after(delay, callback, *args)

            loop.call_batch = call_batch
        samples = measure_rtts(
            fabric, pairs=pairs, packets_per_pair=5, gap_s=gap_s, stagger_s=stagger_s
        )
        rows = [(s.src, s.dst, s.seq, s.rtt_s, s.cold_start) for s in samples]
        return rows, loop.events_run, fabric.now

    batched, per_item = run(False), run(True)
    assert len(batched[0]) == 5 * 30
    assert batched == per_item


def test_drive_incast_packets_on_a_slow_fat_tree():
    topology = fat_tree(4)
    link = LinkSpec(bandwidth_bps=100e6, latency_s=1e-6)
    fabric = DumbNetFabric(
        topology, controller_host=CONTROLLER, seed=3, link_spec=link
    )
    fabric.adopt_blueprint()
    sink = "h3_1_1"
    senders = tuple(h for h in topology.hosts if h not in (CONTROLLER, sink))
    fabric.warm_paths([(s, sink) for s in senders])
    spec = IncastSpec(sink=sink, senders=senders, bits_per_sender=0, start_s=1e-3)
    assert drive_incast_packets(fabric, spec, packets_per_sender=12, gap_s=7e-6) == 168
    assert _digest(fabric.agents[sink].delivered) == (
        "ab6837a3c6d4cfec81f4494f4d27ec0de74271b9839d8f625edaf0a7bfdaa984"
    )
    assert fabric.loop.events_run == 2738
    assert fabric.now == 0.07599442803223701
