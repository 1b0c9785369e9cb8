"""Unified workload/scenario API tests (PR 9).

Covers the Workload -> FlowProgram -> run_scenario pipeline: pinned-seed
determinism (hypothesis), trace CDF moments, incast fan-in shape,
tenant-churn slicing, the TE knob at both fidelity levels, and
same-process byte-identity of the migrated fig9/fig13 benchmarks
against the legacy conventions they replaced.
"""

import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hibench_task
from repro.core.fabric import DumbNetFabric
from repro.core.te import install_packet_te, make_flow_policy
from repro.flowsim import (
    EcnAwareKPathPolicy,
    FlowNet,
    FluidSimulator,
    HashedKPathPolicy,
    RebalancingKPathPolicy,
    SingleShortestPolicy,
    SprayKPathPolicy,
)
from repro.hardware import DUMBNET
from repro.hybrid import build_engine
from repro.topology import leaf_spine, paper_testbed
from repro.workloads import (
    ElephantMice,
    FixedPairs,
    FlowProgram,
    FlowSpec,
    HiBenchWorkload,
    IncastSweep,
    Phase,
    Scenario,
    ScorecardReport,
    StalledProgramError,
    StorageReplication,
    TE_MECHANISMS,
    TenantChurn,
    TraceReplay,
    canonical_suite,
    legacy_task_rng,
    mean_flow_bits,
    quantile,
    replay_program,
    run_scenario,
    sample_flow_bits,
    task_program,
)
from repro.workloads.traces import DATA_MINING_CDF, WEB_SEARCH_CDF


def small_topo():
    return leaf_spine(spines=2, leaves=2, hosts_per_leaf=6, num_ports=32)


# ----------------------------------------------------------------------
# Determinism: same spec + same seed = byte-identical program and cell.


class TestDeterminism:
    WORKLOADS = {
        "websearch": lambda: TraceReplay("websearch", load_bps=5e8, duration_s=0.05),
        "incast": lambda: IncastSweep(fanins=(3, 5), bits_per_sender=1e6),
        "elephant-mice": lambda: ElephantMice(
            duration_s=0.05, mice_rate_per_s=400, elephant_rate_per_s=40
        ),
        "storage": lambda: StorageReplication(
            duration_s=0.05, write_rate_per_s=200, replicas=2
        ),
        "tenant-churn": lambda: TenantChurn(slices=3, duration_s=0.05),
        "hibench": lambda: HiBenchWorkload("Join", scale=0.01),
    }

    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(sorted(WORKLOADS)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_program_pinned_by_seed(self, family, seed):
        topo = small_topo()
        make = self.WORKLOADS[family]
        p1 = make().program(topo, rng=random.Random(seed))
        p2 = make().program(topo, rng=random.Random(seed))
        assert p1 == p2  # frozen dataclasses: structural equality is exact
        p3 = make().program(topo, rng=random.Random(seed + 1))
        if any(p.flows for p in p1.phases):  # a new seed almost surely shifts something
            assert p1 != p3

    @settings(max_examples=6, deadline=None)
    @given(
        te=st.sampled_from(TE_MECHANISMS),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_scenario_cell_pinned_by_seed(self, te, seed):
        def cell():
            scenario = Scenario(
                IncastSweep(fanins=(3, 4), bits_per_sender=5e5),
                te=te,
                topology=small_topo,
                seed=seed,
            )
            return run_scenario(scenario).cell()

        assert cell() == cell()


# ----------------------------------------------------------------------
# Trace CDFs: sampled moments track the analytic mean.


class TestTraceMoments:
    @pytest.mark.parametrize("cdf", [WEB_SEARCH_CDF, DATA_MINING_CDF])
    def test_sampled_mean_matches_analytic(self, cdf):
        rng = random.Random(17)
        n = 60_000
        mean = sum(sample_flow_bits(rng, cdf) for _ in range(n)) / n
        expected = mean_flow_bits(cdf)
        # Heavy tails (datamining's top 2% carries ~GB flows) make the
        # sample mean noisy; 15% is comfortably inside sampling error
        # at this n while still catching unit/shape mistakes.
        assert abs(mean - expected) / expected < 0.15

    def test_samples_bounded_by_cdf_support(self):
        rng = random.Random(3)
        top_bits = WEB_SEARCH_CDF[-1][0] * 8
        for _ in range(2_000):
            s = sample_flow_bits(rng, WEB_SEARCH_CDF)
            assert 64 * 8 <= s <= top_bits

    def test_trace_replay_load_approximates_target(self):
        load, duration = 2e9, 0.5
        wl = TraceReplay("websearch", load_bps=load, duration_s=duration)
        program = wl.program(small_topo(), rng=random.Random(29))
        offered = program.total_bits / duration
        assert 0.5 * load < offered < 1.5 * load


# ----------------------------------------------------------------------
# Incast: fan-in shape and the NIC-bottleneck FCT.


class TestIncastSweep:
    def test_fan_in_shape(self):
        wl = IncastSweep(fanins=(3, 5), bits_per_sender=1e6, rounds_per_fanin=2)
        program = wl.program(small_topo(), rng=random.Random(7))
        assert len(program.phases) == 4  # 2 fanins x 2 rounds
        for phase, fanin in zip(program.phases, (3, 3, 5, 5)):
            sinks = {f.dst for f in phase.flows}
            senders = {f.src for f in phase.flows}
            assert len(phase.flows) == fanin
            assert len(sinks) == 1  # one aggregator
            assert len(senders) == fanin  # distinct workers
            assert sinks.isdisjoint(senders)
            assert len({f.tag for f in phase.flows}) == 1  # one request

    def test_sink_nic_bottleneck_fct(self):
        fanin, bits, host_bps = 5, 2e6, 1e9
        scenario = Scenario(
            IncastSweep(fanins=(fanin,), bits_per_sender=bits),
            te="flowlet",
            topology=small_topo,
            link_bps=10e9,
            host_bps=host_bps,
            seed=1,
        )
        run = run_scenario(scenario)
        (fct,) = run.result.fcts
        assert fct == pytest.approx(fanin * bits / host_bps, rel=1e-6)

    def test_too_small_topology_rejected(self):
        wl = IncastSweep(fanins=(64,))
        with pytest.raises(ValueError):
            wl.program(small_topo(), rng=random.Random(0))


# ----------------------------------------------------------------------
# Tenant churn: traffic stays intra-slice.


class TestTenantChurn:
    def test_flows_stay_inside_their_slice(self):
        wl = TenantChurn(slices=3, duration_s=0.2, session_rate_per_s=40)
        topo = small_topo()
        groups = wl.slice_hosts(topo)
        program = wl.program(topo, rng=random.Random(23))
        for phase in program.phases:
            for flow in phase.flows:
                slice_hosts = set(groups[flow.tag[1]])
                assert flow.src in slice_hosts and flow.dst in slice_hosts

    def test_runs_end_to_end(self):
        scenario = Scenario(
            TenantChurn(slices=2, duration_s=0.1),
            te="ecmp",
            topology=small_topo,
            seed=5,
        )
        run = run_scenario(scenario)
        assert run.cell()["stalled_flows"] == 0


# ----------------------------------------------------------------------
# The program runner: barriers, subflows, stall handling, quantiles.


class TestReplayProgram:
    def test_phase_barrier_orders_starts(self):
        topo = small_topo()
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        program = FlowProgram(
            phases=(
                Phase("a", (FlowSpec(0.0, "h0_0", "h1_0", 1e6, tag="a"),)),
                Phase("b", (FlowSpec(0.0, "h0_1", "h1_1", 1e6, tag="b"),)),
            )
        )
        result = replay_program(sim, program)
        assert len(result.phase_ends) == 2
        starts_b = [f.start_s for f in result.flows if f.tag == "b"]
        assert all(s >= result.phase_ends[0] - 1e-9 for s in starts_b)

    def test_subflows_split_size_and_group_fct(self):
        topo = small_topo()
        net = FlowNet(topo, link_bps=10e9, host_bps=1e9)
        sim = FluidSimulator(net, SprayKPathPolicy(k=4))
        program = FlowProgram.open_loop(
            (FlowSpec(0.0, "h0_0", "h1_0", 4e6, tag="req"),)
        )
        result = replay_program(sim, program, subflows=4)
        assert len(result.flows) == 4
        assert sum(f.size_bits for f in result.flows) == pytest.approx(4e6)
        # All pieces share the tag: one request, one FCT.
        assert len(result.fcts) == 1
        assert result.fcts[0] == pytest.approx(4e6 / 1e9, rel=1e-6)

    def test_stall_raises_then_records(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)

        def severed_sim():
            net = FlowNet(topo, link_bps=10e9, host_bps=1e9)
            net.fail_link("leaf1", 1, "spine0", 2)
            net.fail_link("leaf1", 2, "spine1", 2)
            return FluidSimulator(net, SingleShortestPolicy())

        program = FlowProgram.open_loop(
            (FlowSpec(0.0, "h0_0", "h1_0", 1e6, tag="x"),)
        )
        with pytest.raises(StalledProgramError):
            replay_program(severed_sim(), program)
        result = replay_program(severed_sim(), program, on_stall="record")
        assert [f.done for f in result.flows] == [False]
        assert result.fcts == []

    def test_quantile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quantile(values, 0.5) == 2.0
        assert quantile(values, 0.99) == 4.0
        assert quantile([], 0.5) == 0.0


# ----------------------------------------------------------------------
# The TE knob: one name, both fidelity levels.


class TestTeKnob:
    def test_flow_policy_mapping(self):
        assert isinstance(make_flow_policy("flowlet"), RebalancingKPathPolicy)
        assert isinstance(make_flow_policy("ecmp"), HashedKPathPolicy)
        assert isinstance(make_flow_policy("spray"), SprayKPathPolicy)
        assert isinstance(make_flow_policy("ecn"), EcnAwareKPathPolicy)
        assert isinstance(make_flow_policy("single"), SingleShortestPolicy)
        assert make_flow_policy("flowlet", k=2).k == 2
        with pytest.raises(ValueError):
            make_flow_policy("valiant")

    def test_fabric_fluid_te_knob(self):
        # te= on the fabric installs packet routers; the same name's
        # fluid policy goes to the flow engine, never to the fabric.
        fabric = DumbNetFabric.from_topology(
            small_topo(), bootstrap="blueprint", te="spray"
        )
        assert fabric.te == "spray"
        assert not hasattr(fabric, "dataplane")
        sim = build_engine(small_topo(), "fluid", policy=make_flow_policy("spray"))
        assert isinstance(sim.policy, SprayKPathPolicy)

    def test_fabric_packet_te_knob_installs_routers(self):
        fabric = DumbNetFabric.from_topology(
            small_topo(), bootstrap="blueprint", te="flowlet",
            te_kwargs={"gap_s": 1e-6},
        )
        assert set(fabric.te_routers) == set(fabric.topology.hosts)
        agent = fabric.agents[fabric.topology.hosts[0]]
        assert agent.routing_function is fabric.te_routers[agent.name]

    def test_te_and_flow_policy_mutually_exclusive(self):
        # The fabric takes te= only; a flow policy belongs to build_engine.
        with pytest.raises(TypeError):
            DumbNetFabric.from_topology(
                small_topo(), bootstrap=None,
                te="ecmp", flow_policy=SingleShortestPolicy(),
            )

    def test_packet_spray_rotates_paths(self):
        topo = small_topo()
        fabric = DumbNetFabric.from_topology(
            topo, bootstrap="blueprint", te="spray"
        )
        fabric.warm_paths([("h0_0", "h1_0")])
        agent = fabric.agents["h0_0"]
        for i in range(8):
            agent.send_app("h1_0", ("pkt", i), flow_key="one-flow")
        fabric.run_until_idle()
        router = fabric.te_routers["h0_0"]
        assert router.packets_sprayed >= 8

    def test_spray_policy_spreads_subflows(self):
        scenario = Scenario(
            FixedPairs([("h0_0", "h1_0")], size_bits=8e6, tag="req"),
            te="spray",
            topology=small_topo,
            seed=0,
        )
        run = run_scenario(scenario)
        assert isinstance(run.sim.policy, SprayKPathPolicy)
        cell = run.cell()
        assert cell["subflows"] == 4
        assert cell["flows"] == 4  # one request split four ways
        assert cell["max_paths_per_pair"] > 1  # pieces landed on distinct paths


# ----------------------------------------------------------------------
# Scenario plumbing and the scorecard report.


class TestScenario:
    def test_engine_validated(self):
        with pytest.raises(ValueError):
            Scenario(IncastSweep(fanins=(2,)), engine="ns3")

    def test_missing_topology_rejected(self):
        scenario = Scenario(IncastSweep(fanins=(2,)))
        with pytest.raises(ValueError):
            scenario.resolve_topology()

    def test_packet_is_not_an_engine(self):
        # All-packet fidelity is spelled engine="hybrid",
        # roi=RegionOfInterest.all(); "packet" names no engine.
        with pytest.raises(ValueError):
            Scenario(IncastSweep(fanins=(2,)), engine="packet")
        with pytest.raises(ValueError):
            build_engine(small_topo(), "packet")

    def test_engines_agree_on_fluid_headline(self):
        """An empty-ROI hybrid run is the fluid run: on every canonical
        family under every TE mechanism (the scorecard's grid), the whole
        cell matches except its ``engine`` label."""
        def grid_topology():
            return leaf_spine(spines=2, leaves=2, hosts_per_leaf=10, num_ports=64)

        for workload in canonical_suite(scale=0.5):
            for te in TE_MECHANISMS:
                cells = {}
                for engine in ("fluid", "hybrid"):
                    scenario = Scenario(
                        workload, te=te, engine=engine,
                        topology=grid_topology,
                        link_bps=2.5e9, host_bps=10e9, seed=3,
                    )
                    cells[engine] = run_scenario(scenario).cell()
                    del cells[engine]["engine"]
                assert cells["fluid"] == cells["hybrid"], (workload.name, te)

    def test_scorecard_report_protocol(self):
        report = ScorecardReport(meta={"seed": 1})
        scenario = Scenario(
            IncastSweep(fanins=(3,), bits_per_sender=1e6),
            te="ecmp",
            topology=small_topo,
            seed=2,
        )
        report.add(run_scenario(scenario).cell())
        payload = report.as_dict()
        assert payload["kind"] == "workload-scorecard"
        assert payload["workloads"] == ["incast"]
        assert payload["mechanisms"] == ["ecmp"]
        assert "incast" in report.summary()
        json_text = report.to_json()
        assert "workload-scorecard" in json_text

    def test_canonical_suite_covers_five_families(self):
        names = {wl.name for wl in canonical_suite()}
        assert len(names) >= 5
        assert {"websearch", "datamining", "incast", "storage"} <= names


# ----------------------------------------------------------------------
# Migrated benchmarks: byte-identity against the legacy conventions,
# same process (the legacy hibench seed derivation hashes a string, so
# cross-process identity was never available).


class TestMigrationByteIdentity:
    def test_fig9_headline_identical(self):
        topo = leaf_spine(spines=2, leaves=2, hosts_per_leaf=14, num_ports=64)
        net = FlowNet(topo, link_bps=10e9, host_bps=DUMBNET.throughput_bps())
        sim = build_engine(
            topo, "fluid", policy=RebalancingKPathPolicy(k=2), net=net
        )
        total = 0.0
        for i in range(14):  # the pre-migration bench body, verbatim
            sim.add_flow(f"h0_{i}", f"h1_{i}", 1e9, tag="agg")
            total += 1e9
        sim.run()
        legacy = total / sim.completion_time("agg")

        scenario = Scenario(
            FixedPairs(
                [(f"h0_{i}", f"h1_{i}") for i in range(14)],
                size_bits=1e9,
                tag="agg",
            ),
            te="flowlet",
            topology=topo,
            te_kwargs={"k": 2},
            link_bps=10e9,
            host_bps=DUMBNET.throughput_bps(),
        )
        assert run_scenario(scenario).result.goodput_bps == legacy

    def test_fig13_duration_identical(self):
        topo = paper_testbed()
        overrides = {"spine0": 500e6, "spine1": 500e6}
        net = FlowNet(topo, link_bps=10e9, host_bps=10e9, switch_overrides=overrides)
        sim = build_engine(
            topo, "fluid", policy=RebalancingKPathPolicy(k=4), net=net,
            rebalance_interval_s=0.05,
        )
        task = hibench_task("Wordcount", topo.hosts, seed=11, scale=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = replay_program(sim, task_program(task)).duration_s

        scenario = Scenario(
            HiBenchWorkload("Wordcount", scale=0.1),
            te="flowlet",
            topology=paper_testbed,
            te_kwargs={"k": 4},
            link_bps=10e9,
            host_bps=10e9,
            switch_overrides=overrides,
            rebalance_interval_s=0.05,
        )
        run = run_scenario(scenario, rng=legacy_task_rng(11, "Wordcount"))
        assert run.result.duration_s == legacy
