"""Hardware model tests: calibration points and claimed shapes."""

import random

import pytest

from repro.hardware import (
    ALL_STACKS,
    DUMBNET,
    DUMBNET_MTU,
    DUMBNET_VERILOG_LINES,
    MPLS_ONLY,
    NATIVE,
    NOOP_DPDK,
    dumbnet_switch_resources,
    openflow_switch_resources,
    reduction_factor,
)


class TestFpgaModel:
    def test_paper_calibration_point_exact(self):
        """Section 7.1: 4-port DumbNet = 1,713 LUTs / 1,504 registers;
        OpenFlow = 16,070 / 17,193."""
        dumb = dumbnet_switch_resources(4)
        assert dumb.luts == 1713
        assert dumb.registers == 1504
        of = openflow_switch_resources(4)
        assert of.luts == 16070
        assert of.registers == 17193

    def test_ninety_percent_reduction(self):
        dumb = dumbnet_switch_resources(4)
        of = openflow_switch_resources(4)
        assert dumb.luts < of.luts * 0.11
        assert dumb.registers < of.registers * 0.09
        assert reduction_factor(4) > 9

    def test_monotone_in_ports(self):
        lut_series = [dumbnet_switch_resources(p).luts for p in (2, 4, 8, 16, 32)]
        assert lut_series == sorted(lut_series)
        reg_series = [dumbnet_switch_resources(p).registers for p in (2, 4, 8, 16, 32)]
        assert reg_series == sorted(reg_series)

    def test_figure7_scale_at_32_ports(self):
        """Figure 7's axis tops out around 30K elements at ~30 ports."""
        res = dumbnet_switch_resources(32)
        assert 15_000 < res.luts < 35_000
        assert 15_000 < res.registers < 35_000

    def test_dumbnet_cheaper_at_every_port_count(self):
        for ports in (2, 4, 8, 16):
            assert reduction_factor(ports) > 2

    def test_invalid_ports(self):
        with pytest.raises(ValueError):
            dumbnet_switch_resources(0)
        with pytest.raises(ValueError):
            openflow_switch_resources(-1)

    def test_verilog_line_constant(self):
        assert DUMBNET_VERILOG_LINES == 1228


class TestStackModel:
    def test_figure9_throughputs(self):
        """No-op DPDK 5.41 Gbps; MPLS-only and DumbNet 5.19 Gbps."""
        assert NOOP_DPDK.throughput_bps() / 1e9 == pytest.approx(5.41, abs=0.01)
        assert MPLS_ONLY.throughput_bps() / 1e9 == pytest.approx(5.19, abs=0.02)
        assert DUMBNET.throughput_bps() / 1e9 == pytest.approx(5.19, abs=0.02)

    def test_dumbnet_overhead_negligible(self):
        """DumbNet vs MPLS-only: 'negligible overhead' (< 1%)."""
        ratio = DUMBNET.throughput_bps() / MPLS_ONLY.throughput_bps()
        assert 0.99 < ratio <= 1.0

    def test_mpls_costs_about_four_percent(self):
        ratio = MPLS_ONLY.throughput_bps() / NOOP_DPDK.throughput_bps()
        assert 0.955 < ratio < 0.965

    def test_native_fastest(self):
        assert NATIVE.throughput_bps() > NOOP_DPDK.throughput_bps()

    def test_throughput_scales_with_frame_size(self):
        small = NOOP_DPDK.throughput_bps(frame_bytes=64)
        large = NOOP_DPDK.throughput_bps(frame_bytes=DUMBNET_MTU)
        assert large > small * 10

    def test_invalid_frame_size(self):
        with pytest.raises(ValueError):
            NOOP_DPDK.throughput_bps(frame_bytes=0)

    def test_latency_ordering_matches_figure10(self):
        """Native < no-op DPDK ~= DumbNet, on medians of many samples."""
        rng = random.Random(1234)
        medians = {}
        for stack in ALL_STACKS:
            samples = sorted(stack.rtt_s(rng) for _ in range(2001))
            medians[stack.name] = samples[1000]
        assert medians["Native"] < medians["No-op DPDK"] / 2
        assert medians["DumbNet"] == pytest.approx(
            medians["No-op DPDK"], rel=0.15
        )

    def test_rtt_includes_wire(self):
        rng = random.Random(7)
        base = NATIVE.rtt_s(rng, wire_rtt_s=0.0)
        rng = random.Random(7)
        wired = NATIVE.rtt_s(rng, wire_rtt_s=1.0)
        assert wired == pytest.approx(base + 1.0)

    def test_samples_positive_and_skewed(self):
        rng = random.Random(9)
        samples = [NOOP_DPDK.oneway_latency_s(rng) for _ in range(1000)]
        assert all(s > 0 for s in samples)
        mean = sum(samples) / len(samples)
        median = sorted(samples)[500]
        assert mean > median  # lognormal right skew
