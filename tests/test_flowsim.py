"""Fluid simulator tests: fairness, completion math, policies."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flowsim import (
    FairnessError,
    FlowNet,
    FluidSimulator,
    HashedKPathPolicy,
    RebalancingKPathPolicy,
    SingleShortestPolicy,
    ThroughputSeries,
    max_min_rates,
)
from repro.topology import Topology, TopologyError, fat_tree, leaf_spine, line


def reversed_cable(cable):
    sw_a, port_a, sw_b, port_b = cable
    return (sw_b, port_b, sw_a, port_a)


class TestMaxMin:
    def test_single_bottleneck_split_evenly(self):
        rates = max_min_rates(
            {"f1": ["L"], "f2": ["L"]},
            {"L": 10.0},
        )
        assert rates == {"f1": 5.0, "f2": 5.0}

    def test_classic_three_flow_example(self):
        # f1 crosses both links, f2 only A, f3 only B.
        rates = max_min_rates(
            {"f1": ["A", "B"], "f2": ["A"], "f3": ["B"]},
            {"A": 10.0, "B": 10.0},
        )
        assert rates["f1"] == pytest.approx(5.0)
        assert rates["f2"] == pytest.approx(5.0)
        assert rates["f3"] == pytest.approx(5.0)

    def test_asymmetric_bottlenecks(self):
        rates = max_min_rates(
            {"f1": ["A", "B"], "f2": ["A"], "f3": ["B"]},
            {"A": 10.0, "B": 4.0},
        )
        # B limits f1 and f3 to 2 each; f2 then gets A's remainder: 8.
        assert rates["f1"] == pytest.approx(2.0)
        assert rates["f3"] == pytest.approx(2.0)
        assert rates["f2"] == pytest.approx(8.0)

    def test_demand_caps(self):
        rates = max_min_rates(
            {"f1": ["L"], "f2": ["L"]},
            {"L": 10.0},
            demands={"f1": 1.0},
        )
        assert rates["f1"] == pytest.approx(1.0)
        assert rates["f2"] == pytest.approx(9.0)

    def test_capacity_never_exceeded(self):
        flows = {f"f{i}": ["A", "B"] if i % 2 else ["B", "C"] for i in range(9)}
        caps = {"A": 7.0, "B": 5.0, "C": 3.0}
        rates = max_min_rates(flows, caps)
        for link, cap in caps.items():
            used = sum(r for f, r in rates.items() if link in flows[f])
            assert used <= cap + 1e-9

    def test_max_min_property(self):
        """No flow can gain without a smaller-or-equal flow losing: at
        every link of a non-bottlenecked flow there is residual, so a
        flow's rate equals the fair share of some saturated link."""
        flows = {
            "a": ["X"],
            "b": ["X", "Y"],
            "c": ["Y", "Z"],
            "d": ["Z"],
        }
        caps = {"X": 6.0, "Y": 9.0, "Z": 2.0}
        rates = max_min_rates(flows, caps)
        for flow, route in flows.items():
            shares = []
            for link in route:
                users = [f for f, r in flows.items() if link in r]
                used = sum(rates[f] for f in users)
                if used >= caps[link] - 1e-9:  # saturated
                    others_at_or_above = all(
                        rates[f] >= rates[flow] - 1e-9 for f in users
                    )
                    shares.append(others_at_or_above)
            assert any(shares), f"{flow} is not max-min constrained"

    def test_duplicate_link_route_counts_multiplicity(self):
        """Regression: a route crossing the same link twice used to get
        a fair share computed from the distinct-flow count while freeze
        subtracted per occurrence -- overcommitting the link and
        silently clamping the residual, starving later flows."""
        rates = max_min_rates(
            {"hairpin": ["L", "L"], "straight": ["L"]},
            {"L": 9.0},
        )
        # Weighted fair share: the hairpin eats 2 units of weight, so
        # both flows converge at 9/3 = 3 -- and L carries exactly 9.
        assert rates["hairpin"] == pytest.approx(3.0)
        assert rates["straight"] == pytest.approx(3.0)
        used = 2 * rates["hairpin"] + rates["straight"]
        assert used <= 9.0 + 1e-9

    def test_duplicate_link_solo_flow_gets_half(self):
        rates = max_min_rates({"f": ["L", "L"]}, {"L": 10.0})
        assert rates["f"] == pytest.approx(5.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(FairnessError):
            max_min_rates({"f": ["L"]}, {"L": 1.0}, demands={"f": -0.5})
        with pytest.raises(FairnessError):
            max_min_rates({"f": ["L"]}, {"L": 1.0}, demands={"f": float("nan")})

    def test_empty_route_gets_demand(self):
        rates = max_min_rates({"f": []}, {}, demands={"f": 3.0})
        assert rates["f"] == 3.0

    def test_unknown_link_rejected(self):
        with pytest.raises(FairnessError):
            max_min_rates({"f": ["nope"]}, {})

    def test_bad_capacity_rejected(self):
        with pytest.raises(FairnessError):
            max_min_rates({}, {"L": 0.0})

    def test_infinite_capacity_means_unconstrained(self):
        """Regression: with no finite link the bottleneck share is inf,
        and the demand-capped scan used to admit flows that have no
        demand (``inf <= inf``) and die on ``demands[flow]``."""
        assert max_min_rates({"f": ["L"]}, {"L": math.inf}) == {"f": math.inf}
        rates = max_min_rates(
            {"capped": ["L"], "free": ["L", "M"]},
            {"L": math.inf, "M": math.inf},
            demands={"capped": 3.0},
        )
        assert rates == {"capped": 3.0, "free": math.inf}

    @pytest.mark.parametrize("demands", [None, {"f": 2.0}])
    def test_nan_capacity_rejected(self, demands):
        """Regression: NaN passed ``cap <= 0`` and then either leaked a
        KeyError (uncapped flow) or counted as unconstrained (a capped
        flow silently got its demand)."""
        with pytest.raises(FairnessError):
            max_min_rates({"f": ["L"]}, {"L": math.nan}, demands=demands)
        with pytest.raises(FairnessError):  # crossed or not
            max_min_rates({"f": ["L"]}, {"L": 1.0, "idle": math.nan}, demands=demands)


class TestFlowNet:
    def test_route_links_cover_every_hop(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo)
        links = net.route_links("h0_0", ["leaf0", "spine0", "leaf1"], "h1_0")
        assert links[0] == ("htx", "h0_0")
        assert len(links) == 4  # NIC + leaf0->spine0 + spine0->leaf1 + leaf1->host

    def test_cached_routes_cannot_be_edited_by_a_caller(self):
        """One walk is shared by the route cache, the candidate memo and
        every flow on the path: it is handed out immutable."""
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo)
        links = net.route_links("h0_0", ["leaf0", "spine0", "leaf1"], "h1_0")
        assert isinstance(links, tuple)
        with pytest.raises(AttributeError):
            links.append(("htx", "h1_1"))
        with pytest.raises(TypeError):
            links[0] = ("htx", "h1_1")
        keys = {key: key for key in net.capacities}
        for path, cand_links in net.candidates("h0_0", "h1_0", 4):
            assert cand_links is net.route_links("h0_0", path, "h1_0")
            # ... and every id is the key object of ``capacities``.
            assert all(link is keys[link] for link in cand_links)

    def test_k_paths_answer_survives_a_caller_appending_to_it(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo)
        first = net.k_paths("h0_0", "h1_0", 4)
        want = [list(path) for path in first]
        first.append(["leaf0", "nowhere", "leaf1"])
        first.reverse()
        assert net.k_paths("h0_0", "h1_0", 4) == want
        assert net.k_paths("h0_0", "h1_0", 1) == want[:1]

    def test_failed_link_invalidates_route(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo)
        net.fail_link("leaf0", 1, "spine0", 1)
        assert net.route_links("h0_0", ["leaf0", "spine0", "leaf1"], "h1_0") is None
        assert net.k_paths("h0_0", "h1_0", 4) == [["leaf0", "spine1", "leaf1"]]
        net.restore_link("leaf0", 1, "spine0", 1)
        assert len(net.k_paths("h0_0", "h1_0", 4)) == 2

    def test_restore_of_an_unknown_cable_raises_like_fail(self):
        """A typo'd restore must not "succeed" while the real cable
        stays down; fail_link has always validated the same way."""
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo)
        net.fail_link("leaf0", 1, "spine0", 1)
        epoch = net.link_epoch
        for typo in (
            ("leaf0", 1, "spine0", 2),   # wrong far port: no such cable
            ("leaf0", 1, "spine1", 1),   # mismatched pair
            ("leaf9", 1, "spine0", 1),   # unknown switch
        ):
            with pytest.raises(TopologyError):
                net.restore_link(*typo)
            with pytest.raises(TopologyError):
                net.fail_link(*typo)
        assert net.link_epoch == epoch
        assert net.k_paths("h0_0", "h1_0", 4) == [["leaf0", "spine1", "leaf1"]]

    def test_link_epoch_moves_only_on_real_state_changes(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo)
        cable = ("leaf0", 1, "spine0", 1)
        net.restore_link(*cable)  # already up
        assert net.link_epoch == 0
        net.fail_link(*cable)
        net.fail_link(*reversed_cable(cable))  # already down
        assert net.link_epoch == 1
        net.restore_link(*reversed_cable(cable))
        assert net.link_epoch == 2
        assert len(net.k_paths("h0_0", "h1_0", 4)) == 2

    def test_port_overrides(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo, link_bps=10e9, port_overrides={("spine0", 1): 5e8})
        assert net.capacities[("tx", "spine0", 1)] == 5e8
        assert net.capacities[("tx", "spine0", 2)] == 10e9

    def test_switch_overrides(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo, switch_overrides={"spine0": 1e9})
        assert net.capacities[("tx", "spine0", 1)] == 1e9

    @pytest.mark.parametrize("bad", [0.0, -1e9, math.nan])
    def test_bad_capacity_refused_at_construction(self, bad):
        """Capacities are validated once, when the net is built -- not
        at the first solve, and whether or not a flow ever crosses them.
        A plain mapping handed to the solver is still validated whole."""
        topo = leaf_spine(2, 2, 2, num_ports=16)
        with pytest.raises(FairnessError):
            FlowNet(topo, port_overrides={("spine1", 2): bad})
        with pytest.raises(FairnessError):
            FlowNet(topo, switch_overrides={"leaf1": bad})
        with pytest.raises(FairnessError):
            FlowNet(topo, host_bps=bad)
        net = FlowNet(topo)
        links = net.route_links("h0_0", ["leaf0", "spine0", "leaf1"], "h1_0")
        assert max_min_rates({"f": links}, dict(net.capacities)) == {"f": 10e9}
        with pytest.raises(FairnessError):
            max_min_rates({"f": links}, {**net.capacities, ("tx", "idle", 99): bad})

    def test_yen_first_paths_come_from_one_tree_per_source_switch(self, monkeypatch):
        topo = fat_tree(4)
        built = []
        tree = Topology.sssp_tree
        monkeypatch.setattr(
            Topology, "sssp_tree", lambda self, src, **kw: built.append(src) or tree(self, src, **kw)
        )
        net = FlowNet(topo)
        hosts = sorted(topo.hosts)
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    want = topo.k_shortest_switch_paths(
                        topo.host_port(src).switch, topo.host_port(dst).switch, 4
                    )
                    assert net.k_paths(src, dst, 4) == want  # per-pair Dijkstra's answer
        assert sorted(built) == sorted({topo.host_port(h).switch for h in hosts})

    def test_capacity_table_reads_like_the_mapping_it_was_built_from(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo, link_bps=10e9, port_overrides={("spine0", 1): 5e8})
        table = net.capacities
        plain = dict(table)
        assert list(table) == list(plain) and len(table) == len(plain)
        assert list(table.items()) == list(plain.items())
        assert table.get(("tx", "nowhere", 1)) is None and ("htx", "h0_0") in table
        # Ranks follow that order; every walked link id is the table's key.
        assert [table.rank[link] for link in table] == list(range(len(table)))
        links = net.route_links("h0_0", ["leaf0", "spine0", "leaf1"], "h1_0")
        assert all(table.links[table.rank[link]] is link for link in links)


class TestFluidSimulator:
    def test_single_flow_completion_math(self):
        topo = line(2, hosts_per_switch=1)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        flow = sim.add_flow("hL0_0", "hL1_0", 1e9)
        sim.run()
        assert flow.finished_at == pytest.approx(1.0)

    def test_fair_sharing_delays_completion(self):
        topo = line(2, hosts_per_switch=2)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        f1 = sim.add_flow("hL0_0", "hL1_0", 1e9)
        f2 = sim.add_flow("hL0_1", "hL1_1", 1e9)
        sim.run()
        # Both share the single L0->L1 link: 2 Gb over 1 Gbps = 2 s.
        assert f1.finished_at == pytest.approx(2.0)
        assert f2.finished_at == pytest.approx(2.0)

    def test_staggered_arrival(self):
        topo = line(2, hosts_per_switch=2)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        f1 = sim.add_flow("hL0_0", "hL1_0", 1e9, start_s=0.0)
        f2 = sim.add_flow("hL0_1", "hL1_1", 1e9, start_s=0.5)
        sim.run()
        # f1 alone for 0.5 s (0.5 Gb done), then shares: each gets 0.5.
        # f1 finishes at 0.5 + 0.5/0.5 = 1.5; f2 at 1.5 + 0.5/1 = 2.0.
        assert f1.finished_at == pytest.approx(1.5)
        assert f2.finished_at == pytest.approx(2.0)

    def test_demand_capped_flow(self):
        topo = line(2)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        flow = sim.add_flow("hL0_0", "hL1_0", 1e9, demand_bps=0.5e9)
        sim.run()
        assert flow.finished_at == pytest.approx(2.0)

    def test_rebalancing_beats_single_path(self):
        topo = leaf_spine(2, 2, 4, num_ports=16)
        durations = {}
        for name, policy in (
            ("single", SingleShortestPolicy()),
            ("rebalance", RebalancingKPathPolicy(k=4)),
        ):
            net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
            sim = FluidSimulator(net, policy)
            flows = [sim.add_flow(f"h0_{i}", f"h1_{i}", 1e9) for i in range(4)]
            sim.run()
            durations[name] = max(f.finished_at for f in flows)
        assert durations["rebalance"] < durations["single"] * 0.75

    def test_hashed_policy_spreads(self):
        topo = leaf_spine(4, 2, 8, num_ports=32)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, HashedKPathPolicy(k=4))
        flows = [sim.add_flow(f"h0_{i}", f"h1_{i}", 1e8) for i in range(8)]
        sim.run()
        used_spines = {f.switch_path[1] for f in flows}
        assert len(used_spines) >= 2

    def test_injected_failure_reroutes_flow(self):
        topo = leaf_spine(2, 2, 2, num_ports=16)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, RebalancingKPathPolicy(k=2))
        flow = sim.add_flow("h0_0", "h1_0", 2e9)
        sim.at(0.5, lambda: net.fail_link("leaf0", 1, "spine0", 1))
        sim.at(0.5, lambda: net.fail_link("leaf0", 2, "spine1", 1))
        # Both uplinks dead: the flow stalls forever after 0.5 s.
        sim.run()
        assert flow.finished_at is None
        assert flow.remaining_bits == pytest.approx(1.5e9)

    def test_throughput_recording(self):
        topo = line(2)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        sim.add_flow("hL0_0", "hL1_0", 1e9, tag="t")
        record = {}
        sim.run(record=record, record_key=lambda f: f.tag)
        series = record["t"]
        assert all(bps == pytest.approx(1e9) for _t0, _t1, bps in series.segments)
        assert series.delivered_bits() == pytest.approx(1e9)

    def test_completion_time_by_tag(self):
        topo = line(2, hosts_per_switch=2)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        sim.add_flow("hL0_0", "hL1_0", 1e9, tag="job")
        sim.add_flow("hL0_1", "hL1_1", 1e9, tag="job")
        sim.run()
        assert sim.completion_time("job") == pytest.approx(2.0)
        assert sim.completion_time("nothing") is None


class TestFinishEpsilon:
    def test_tiny_flow_not_finished_early_by_coincident_event(self):
        """Regression: the finish threshold used to be an absolute
        ``remaining_bits <= 1e-6``, so a sub-microbit flow was declared
        done at any coincident event while it still had half its bits
        to move.  The threshold is now relative to the flow size."""
        topo = line(2)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        # 2e-6 bits at a 1 bps demand cap: 2 microseconds of work.
        flow = sim.add_flow("hL0_0", "hL1_0", 2e-6, demand_bps=1.0)
        # An unrelated event halfway through leaves 1e-6 bits remaining
        # -- under the old absolute cutoff that "finished" the flow.
        sim.at(1e-6, lambda: None)
        sim.run()
        assert flow.done
        assert flow.finished_at == pytest.approx(2e-6, rel=1e-9)

    def test_normal_flow_completion_unchanged(self):
        topo = line(2)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        flow = sim.add_flow("hL0_0", "hL1_0", 1e9)
        sim.run()
        assert flow.finished_at == pytest.approx(1.0)


class TestActiveSet:
    def test_finished_flows_leave_the_active_set(self):
        topo = line(2, hosts_per_switch=2)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        sim.add_flow("hL0_0", "hL1_0", 1e8, start_s=0.0)
        sim.add_flow("hL0_1", "hL1_1", 1e8, start_s=1.0)
        sim.run()
        # The record of every flow survives; the hot set drains.
        assert len(sim.flows) == 2
        assert sim._active == []
        assert all(f.done for f in sim.flows)

    def test_report_counters(self):
        topo = line(2, hosts_per_switch=2)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        sim.add_flow("hL0_0", "hL1_0", 1e8)
        sim.add_flow("hL0_1", "hL1_1", 1e8)
        sim.run()
        report = sim.report().as_dict()
        assert report["kind"] == "fluid-report"
        assert report["flows"]["total"] == 2
        assert report["flows"]["completed"] == 2
        assert report["flows"]["active"] == 0
        assert report["recomputes"] >= 1
        assert report["epochs"] >= report["recomputes"]
        assert "fluid" in sim.report().summary()


class TestFluidProperties:
    """Hypothesis invariants: conservation and capacity."""

    @settings(max_examples=30, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.floats(min_value=1e3, max_value=5e8),  # size (bits)
                st.floats(min_value=0.0, max_value=0.5),  # start (s)
                st.integers(min_value=0, max_value=3),    # src host
                st.integers(min_value=0, max_value=3),    # dst host
            ),
            min_size=1,
            max_size=12,
        ),
        fail_window=st.one_of(
            st.none(),
            st.tuples(
                st.floats(min_value=0.0, max_value=0.5),   # fail at
                st.floats(min_value=0.01, max_value=0.5),  # down for
            ),
        ),
    )
    def test_conservation_and_capacity(self, specs, fail_window):
        topo = line(2, hosts_per_switch=4)
        net = FlowNet(topo, link_bps=1e9, host_bps=1e9)
        sim = FluidSimulator(net, SingleShortestPolicy())
        flows = [
            sim.add_flow(f"hL0_{s}", f"hL1_{d}", size, start_s=start)
            for size, start, s, d in specs
        ]
        if fail_window is not None:
            t_fail, down_for = fail_window
            link = topo.links[0]
            a, b = link.endpoints
            args = (a.switch, a.port, b.switch, b.port)
            sim.at(t_fail, lambda: net.fail_link(*args))
            sim.at(t_fail + down_for, lambda: net.restore_link(*args))
        record = {}
        sim.run(until=30.0, record=record, record_key=lambda f: f.fid)

        # Conservation: a completed flow delivered exactly its size.
        for flow in flows:
            if flow.done:
                series = record.get(flow.fid)
                assert series is not None
                assert series.delivered_bits() == pytest.approx(
                    flow.size_bits, rel=1e-6, abs=1.0
                )

        # Capacity: every L0->L1 flow crosses the one inter-switch
        # cable, so the aggregate recorded rate over any interval may
        # never exceed its 1 Gbps.  Per-epoch segments share interval
        # boundaries, so summing per (t0, t1) reconstructs the
        # aggregate series exactly.
        aggregate = {}
        for series in record.values():
            for t0, t1, bps in series.segments:
                aggregate[(t0, t1)] = aggregate.get((t0, t1), 0.0) + bps
        for (t0, t1), bps in aggregate.items():
            assert bps <= 1e9 * (1 + 1e-9), f"overcommit in [{t0}, {t1}]"


class TestThroughputSeries:
    def test_zero_length_segment_ignored(self):
        series = ThroughputSeries()
        series.add(1.0, 1.0, 5.0)
        assert series.segments == []
