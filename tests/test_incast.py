"""Incast workload tests: fluid math, packet drive, ECN fabric."""

import pytest

from helpers import IncastSpec, drive_incast_packets
from repro.core.ecn import EcnSwitch
from repro.core.fabric import DumbNetFabric
from repro.flowsim import FlowNet, FluidSimulator, SingleShortestPolicy
from repro.netsim import LinkSpec
from repro.topology import leaf_spine
from repro.workloads import replay_program


class TestFluidIncast:
    def test_sink_nic_is_the_bottleneck(self):
        topo = leaf_spine(2, 2, 4, num_ports=16)
        net = FlowNet(topo, link_bps=10e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        spec = IncastSpec(
            sink="h1_0",
            senders=("h0_0", "h0_1", "h0_2", "h0_3"),
            bits_per_sender=1e9,
        )
        duration = replay_program(sim, spec.program()).fcts[0]
        # 4 Gb into a 1 Gbps... the last hop is the leaf's host port at
        # host_bps: ideal = 4 s.
        assert duration == pytest.approx(4.0, rel=0.01)

    def test_unreachable_sink_raises(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo, link_bps=10e9, host_bps=1e9)
        net.fail_link("leaf1", 1, "spine0", 2)
        net.fail_link("leaf1", 2, "spine1", 2)
        sim = FluidSimulator(net, SingleShortestPolicy())
        spec = IncastSpec(sink="h1_0", senders=("h0_0",), bits_per_sender=1e6)
        with pytest.raises(RuntimeError):
            replay_program(sim, spec.program())


class TestPacketIncast:
    def test_all_packets_arrive(self):
        topo = leaf_spine(2, 2, 4, num_ports=16)
        fabric = DumbNetFabric(topo, controller_host="h0_0", seed=1)
        fabric.adopt_blueprint()
        fabric.warm_paths([(s, "h1_0") for s in ("h0_1", "h0_2", "h0_3")])
        spec = IncastSpec(
            sink="h1_0",
            senders=("h0_1", "h0_2", "h0_3"),
            bits_per_sender=0,
        )
        got = drive_incast_packets(fabric, spec, packets_per_sender=10)
        assert got == 30

    def test_ecn_fabric_marks_under_incast(self):
        """A full EcnSwitch fabric: the sink's last-hop port backlogs
        under the burst and marks packets."""
        topo = leaf_spine(2, 2, 6, num_ports=16)
        spec = LinkSpec(bandwidth_bps=100e6, latency_s=1e-6)  # slow fabric
        fabric = DumbNetFabric(
            topo, controller_host="h0_0", seed=2,
            link_spec=spec,
            switch_cls=EcnSwitch,
        )
        fabric.adopt_blueprint()
        senders = ("h0_1", "h0_2", "h0_3", "h0_4", "h0_5")
        fabric.warm_paths([(s, "h1_0") for s in senders])
        incast = IncastSpec(sink="h1_0", senders=senders, bits_per_sender=0)
        got = drive_incast_packets(
            fabric, incast, packet_bytes=1450, packets_per_sender=30
        )
        assert got == 150  # nothing dropped, only delayed
        total_marked = sum(
            sw.packets_marked for sw in fabric.network.switches.values()
        )
        assert total_marked > 0
        # The sink's leaf (last hop) did the marking.
        assert fabric.network.switches["leaf1"].packets_marked > 0

    def test_plain_switches_never_mark(self):
        topo = leaf_spine(2, 2, 4, num_ports=16)
        fabric = DumbNetFabric(topo, controller_host="h0_0", seed=3)
        fabric.adopt_blueprint()
        fabric.warm_paths([("h0_1", "h1_0")])
        spec = IncastSpec(sink="h1_0", senders=("h0_1",), bits_per_sender=0)
        drive_incast_packets(fabric, spec, packets_per_sender=5)
        sink = fabric.agents["h1_0"]
        marked = [d for d in sink.delivered if getattr(d, "ecn_marked", False)]
        assert not marked
