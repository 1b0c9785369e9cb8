"""Trace-driven workload tests."""

import random

import pytest

from repro.flowsim import FlowNet, FluidSimulator, RebalancingKPathPolicy
from repro.topology import leaf_spine
from repro.workloads import TraceReplay, replay_program
from repro.workloads.traces import (
    DATA_MINING_CDF,
    WEB_SEARCH_CDF,
    mean_flow_bits,
    sample_flow_bits,
)


class TestDistributions:
    def test_cdfs_are_valid(self):
        for cdf in (WEB_SEARCH_CDF, DATA_MINING_CDF):
            sizes = [s for s, _p in cdf]
            probs = [p for _s, p in cdf]
            assert sizes == sorted(sizes)
            assert probs == sorted(probs)
            assert probs[-1] == 1.0

    def test_samples_within_support(self):
        rng = random.Random(1)
        for cdf in (WEB_SEARCH_CDF, DATA_MINING_CDF):
            top = cdf[-1][0] * 8
            for _ in range(2000):
                bits = sample_flow_bits(rng, cdf)
                assert 0 < bits <= top

    def test_sample_mean_matches_analytic(self):
        rng = random.Random(2)
        samples = [sample_flow_bits(rng, WEB_SEARCH_CDF) for _ in range(40000)]
        sample_mean = sum(samples) / len(samples)
        analytic = mean_flow_bits(WEB_SEARCH_CDF)
        assert sample_mean == pytest.approx(analytic, rel=0.1)

    def test_data_mining_heavier_tailed(self):
        """Data-mining: most flows tiny, bytes in elephants -- its
        median is far below web-search's while its mean is far above."""
        rng = random.Random(3)
        dm = sorted(sample_flow_bits(rng, DATA_MINING_CDF) for _ in range(9001))
        ws = sorted(sample_flow_bits(rng, WEB_SEARCH_CDF) for _ in range(9001))
        assert dm[4500] < ws[4500] / 10
        assert mean_flow_bits(DATA_MINING_CDF) > mean_flow_bits(WEB_SEARCH_CDF)


def trace_flows(hosts, load_bps, duration_s, seed):
    """The web-search trace's flow specs, time-ordered."""
    workload = TraceReplay(
        WEB_SEARCH_CDF, load_bps=load_bps, duration_s=duration_s, hosts=hosts
    )
    (phase,) = workload.program(None, rng=random.Random(seed)).phases
    return phase.flows


class TestTraceReplay:
    def test_flow_rows_shape(self):
        hosts = [f"h{i}" for i in range(8)]
        flows = trace_flows(hosts, load_bps=2e9, duration_s=0.5, seed=4)
        assert flows
        times = [f.start_s for f in flows]
        assert times == sorted(times)
        assert all(0 <= t < 0.5 for t in times)
        assert all(f.src != f.dst for f in flows)

    def test_offered_load_approximate(self):
        hosts = [f"h{i}" for i in range(8)]
        flows = trace_flows(hosts, load_bps=5e9, duration_s=2.0, seed=5)
        offered = sum(f.size_bits for f in flows) / 2.0
        assert offered == pytest.approx(5e9, rel=0.35)  # heavy tail noise

    def test_deterministic_given_seed(self):
        hosts = ["a", "b", "c"]
        w1 = trace_flows(hosts, 1e9, 0.2, seed=9)
        w2 = trace_flows(hosts, 1e9, 0.2, seed=9)
        assert w1 == w2

    def test_needs_two_hosts(self):
        with pytest.raises(ValueError):
            trace_flows(["solo"], 1e9, 1.0, seed=0)

    def test_runs_through_fluid_simulator(self):
        topo = leaf_spine(2, 2, 4, num_ports=16)
        workload = TraceReplay(WEB_SEARCH_CDF, load_bps=1e9, duration_s=0.2)
        net = FlowNet(topo, link_bps=10e9, host_bps=10e9)
        sim = FluidSimulator(net, RebalancingKPathPolicy(k=2),
                             rebalance_interval_s=0.01)
        replay_program(sim, workload.program(topo, rng=random.Random(6)))
        assert sim.completed
        assert all(f.done for f in sim.flows)
