"""Workload generator tests: traffic matrices, HiBench DAGs, iperf."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import hibench_task
from repro.core.fabric import DumbNetFabric
from repro.flowsim import FlowNet, FluidSimulator, RebalancingKPathPolicy, SingleShortestPolicy
from repro.topology import leaf_spine, paper_testbed
from repro.workloads import (
    CbrStream,
    HIBENCH_TASKS,
    measure_rtts,
    pareto_flow_bits,
    poisson_arrivals,
    replay_program,
    task_program,
)


class TestTrafficMatrices:
    def test_pareto_mean_approximate(self):
        rng = random.Random(5)
        samples = [pareto_flow_bits(rng, mean_bits=1e6) for _ in range(30000)]
        mean = sum(samples) / len(samples)
        assert 0.6e6 < mean < 1.8e6  # heavy tails make this noisy
        assert min(samples) > 0

    def test_pareto_heavy_tail(self):
        rng = random.Random(6)
        samples = sorted(pareto_flow_bits(rng, mean_bits=1e6) for _ in range(10000))
        top1pct = samples[int(0.99 * len(samples)):]
        assert sum(top1pct) > 0.1 * sum(samples)  # elephants carry bytes

    def test_pareto_validation(self):
        with pytest.raises(ValueError):
            pareto_flow_bits(random.Random(0), shape=1.0)

    def test_poisson_arrivals_sorted_and_bounded(self):
        rng = random.Random(2)
        times = list(poisson_arrivals(rng, rate_per_s=100, until_s=1.0))
        assert times == sorted(times)
        assert all(0 <= t < 1.0 for t in times)
        assert 50 < len(times) < 160

    def test_poisson_zero_rate(self):
        assert list(poisson_arrivals(random.Random(0), 0, 1.0)) == []


class TestHiBench:
    def test_all_five_tasks_build(self):
        hosts = [f"h{i}" for i in range(6)]
        for name in HIBENCH_TASKS:
            task = hibench_task(name, hosts, seed=1)
            assert task.stages
            assert task.total_bits > 0
            for stage in task.stages:
                for src, dst, bits in stage.flows:
                    assert src != dst and bits > 0

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            hibench_task("Sort", ["a", "b"])
        with pytest.raises(ValueError):
            hibench_task("Terasort", ["solo"])

    def test_terasort_is_heaviest(self):
        hosts = [f"h{i}" for i in range(6)]
        sizes = {
            name: hibench_task(name, hosts, seed=1).total_bits
            for name in HIBENCH_TASKS
        }
        assert sizes["Terasort"] == max(sizes.values())
        assert sizes["Wordcount"] == min(sizes.values())

    def test_deterministic_given_seed(self):
        hosts = ["a", "b", "c"]
        t1 = hibench_task("Join", hosts, seed=9)
        t2 = hibench_task("Join", hosts, seed=9)
        assert t1 == t2

    def test_same_dag_under_any_hash_seed(self):
        """The task rng is not derived from a salted ``hash()``: two
        interpreters with different hash seeds build the same DAG (the
        committed Figure 13 table depends on it)."""
        script = (
            "from helpers import hibench_task\n"
            "from repro.workloads import HIBENCH_TASKS\n"
            "hosts = [f'h{i}' for i in range(6)]\n"
            "print(repr([hibench_task(n, hosts, seed=11) for n in HIBENCH_TASKS]))\n"
        )
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here.parent / "src"), str(here)])
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(run.stdout)
        assert "Terasort" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_run_task_stage_barrier(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        task = hibench_task("Aggregation", topo.hosts, seed=3, scale=0.01)
        duration = replay_program(sim, task_program(task)).duration_s
        assert duration > 0
        # Stage 2 flows must all start at/after stage 1 completion.
        stage1_tag = (task.name, task.stages[0].name)
        stage2_tag = (task.name, task.stages[1].name)
        stage1_done = sim.completion_time(stage1_tag)
        stage2_starts = [f.start_s for f in sim.flows if f.tag == stage2_tag]
        assert all(s >= stage1_done - 1e-9 for s in stage2_starts)

    def test_flowlet_policy_speeds_up_tasks(self):
        topo = leaf_spine(2, 3, 3, num_ports=16)
        durations = {}
        for label, policy in (
            ("single", SingleShortestPolicy()),
            ("balanced", RebalancingKPathPolicy(k=4)),
        ):
            net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
            sim = FluidSimulator(net, policy)
            task = hibench_task("Terasort", topo.hosts, seed=2, scale=0.02)
            durations[label] = replay_program(sim, task_program(task)).duration_s
        assert durations["balanced"] < durations["single"]


class TestIperf:
    def test_cbr_stream_throughput(self):
        fabric = DumbNetFabric(
            leaf_spine(2, 2, 2, num_ports=16), controller_host="h0_0", seed=1
        )
        fabric.adopt_blueprint()
        fabric.warm_paths([("h0_1", "h1_1")])
        stream = CbrStream(
            fabric.agents["h0_1"], fabric.agents["h1_1"], rate_bps=50e6,
            packet_bytes=1450,
        )
        stream.start()
        fabric.run(until=fabric.now + 0.02)
        stream.stop()
        fabric.run_until_idle()
        bins = stream.throughput_bins(0.005, until=0.02)
        # Steady-state bins should carry ~50 Mbps.
        steady = [bps for _t, bps in bins[1:]]
        assert steady and all(35e6 < bps < 65e6 for bps in steady)

    def test_rtt_measurement_smoke(self):
        fabric = DumbNetFabric(paper_testbed(), controller_host="h0_0", seed=4)
        fabric.adopt_blueprint()
        pairs = [("h1_0", "h2_0"), ("h2_0", "h1_0"), ("h3_0", "h4_1")]
        samples = measure_rtts(fabric, pairs=pairs, packets_per_pair=5)
        assert len(samples) == 15
        assert all(s.rtt_s > 0 for s in samples)
        # First packet of each pair is a cold start (controller query).
        cold = [s for s in samples if s.cold_start]
        warm = [s for s in samples if not s.cold_start]
        assert len(cold) == 3
        assert max(s.rtt_s for s in cold) > min(s.rtt_s for s in warm)
