"""Incremental rediscovery: the frontier-BFS engine (driven through the
blocking drivers in ``helpers``), blueprint repair, live controller
probe runs, and the chaos-schedule switch-join op."""

import pytest

from helpers import expand, repair
from repro.consensus.store import ReplicatedTopologyStore, apply_change
from repro.core.discovery import (
    OracleProbeTransport,
    RediscoveryEngine,
    discover,
    verify_expected_topology,
)
from repro.core.fabric import DumbNetFabric
from repro.faultinject import ChaosRunner, FaultEvent, FaultSchedule, build_chaos_fabric
from repro.topology import Topology, TopologyError, fat_tree, leaf_spine


def _free_ports(topo, limit):
    """First free (switch, port) per switch, up to ``limit`` switches."""
    out = []
    for sw in sorted(topo.switches):
        for p in range(1, topo.num_ports(sw) + 1):
            if topo.peer(sw, p) is None:
                out.append((sw, p))
                break
        if len(out) == limit:
            break
    return out


def _join_one_switch(truth, new_switch="joinsw", cables=3):
    """truth + one new switch cabled into ``cables`` free ports.
    Returns (joined topology, frontier ports on the old fabric)."""
    joined = truth.copy()
    num_ports = max(truth.num_ports(sw) for sw in truth.switches)
    joined.add_switch(new_switch, num_ports)
    frontiers = _free_ports(truth, cables)
    assert len(frontiers) == cables, "topology too full for the scenario"
    for i, (sw, p) in enumerate(frontiers, start=1):
        joined.add_link(sw, p, new_switch, i)
    return joined, frontiers


class TestEngineOracle:
    """The sans-IO engine driven through the oracle transport."""

    def _expand(self, k=4, num_ports=6, cables=3):
        truth = fat_tree(k, num_ports=num_ports)
        origin = truth.hosts[0]
        boot = discover(OracleProbeTransport(truth, origin=origin), origin)
        joined, frontiers = _join_one_switch(truth, cables=cables)
        full = discover(OracleProbeTransport(joined, origin=origin), origin)
        inc = expand(
            OracleProbeTransport(joined, origin=origin),
            origin,
            boot.view.copy(),
            frontiers,
        )
        return full, inc

    def test_single_join_matches_full_discovery(self):
        full, inc = self._expand()
        assert inc.view.same_wiring(full.view)
        assert inc.switches_added == ["joinsw"]
        assert len(inc.links_added) == 3
        assert inc.max_frontier_depth >= 1

    def test_probes_an_order_of_magnitude_below_full(self):
        # Exact oracle message counts, so a change to the probe schedule
        # of either seed shows up here, not only a ratio collapse.
        for (k, ports, cables), counts in (((4, 6, 3), (703, 49)), ((8, 10, 4), (6828, 126))):
            full, inc = self._expand(k, ports, cables)
            assert inc.view.same_wiring(full.view)
            assert (full.stats.probes_sent, inc.stats.probes_sent) == counts
            assert inc.stats.probes_sent * 10 <= full.stats.probes_sent

    def test_change_log_replays_into_a_replica(self):
        truth = fat_tree(4, num_ports=6)
        origin = truth.hosts[0]
        boot = discover(OracleProbeTransport(truth, origin=origin), origin)
        joined, frontiers = _join_one_switch(truth)
        replica = boot.view.copy()
        inc = expand(
            OracleProbeTransport(joined, origin=origin),
            origin,
            boot.view.copy(),
            frontiers,
        )
        for change in inc.changes:
            apply_change(replica, change)
        assert replica.same_wiring(inc.view)

    def test_on_change_hook_sees_every_change_in_order(self):
        truth = fat_tree(4, num_ports=6)
        origin = truth.hosts[0]
        boot = discover(OracleProbeTransport(truth, origin=origin), origin)
        joined, frontiers = _join_one_switch(truth)
        seen = []
        inc = expand(
            OracleProbeTransport(joined, origin=origin),
            origin,
            boot.view.copy(),
            frontiers,
            on_change=seen.append,
        )
        assert seen == inc.changes
        assert seen[0].op == "switch-up"
        assert {c.op for c in seen} <= {"switch-up", "link-up", "host-up"}

    def test_window_bounds_every_round(self):
        truth = fat_tree(4, num_ports=6)
        origin = truth.hosts[0]
        boot = discover(OracleProbeTransport(truth, origin=origin), origin)
        joined, frontiers = _join_one_switch(truth)
        transport = OracleProbeTransport(joined, origin=origin)
        window = transport.max_ports + 1  # one port scan per round
        engine = RediscoveryEngine(
            view=boot.view.copy(),
            origin=origin,
            max_ports=transport.max_ports,
            window=window,
        )
        for sw, p in frontiers:
            engine.add_frontier(sw, p)
        rounds = 0
        while True:
            specs = engine.next_round()
            if not specs:
                break
            assert len(specs) <= window
            engine.feed(transport.probe_round(specs))
            rounds += 1
        assert engine.done
        assert rounds > 1  # the bound actually split the work
        assert engine.view.same_wiring(joined)

    def test_add_frontier_rejects_bad_ports(self):
        truth = fat_tree(4, num_ports=6)
        origin = truth.hosts[0]
        view = discover(OracleProbeTransport(truth, origin=origin), origin).view
        engine = RediscoveryEngine(view=view, origin=origin, max_ports=6)
        occupied = next(
            (sw, p)
            for sw in view.switches
            for p in range(1, view.num_ports(sw) + 1)
            if view.peer(sw, p) is not None
        )
        assert not engine.add_frontier(*occupied)
        assert not engine.add_frontier("no-such-switch", 1)
        free = _free_ports(view, 1)[0]
        assert not engine.add_frontier(free[0], 99)  # out of range
        assert engine.add_frontier(*free)
        assert not engine.add_frontier(*free)  # deduplicated

    def test_unreachable_frontier_is_reported_not_lost(self):
        truth = fat_tree(4, num_ports=6)
        origin = truth.hosts[0]
        view = discover(OracleProbeTransport(truth, origin=origin), origin).view
        view.add_switch("island", 6)  # known but not cabled: no route
        inc = expand(
            OracleProbeTransport(truth, origin=origin),
            origin,
            view,
            [("island", 1)],
        )
        assert inc.unreachable_frontiers == [("island", 1)]
        assert inc.changes == []

    def test_unknown_origin_raises_instead_of_reading_unreachable(self):
        truth = fat_tree(4, num_ports=6)
        origin = truth.hosts[0]
        view = discover(OracleProbeTransport(truth, origin=origin), origin).view
        with pytest.raises(TopologyError):
            expand(
                OracleProbeTransport(truth, origin=origin),
                "ghost",
                view,
                _free_ports(view, 2),
            )


class TestRepairFromVerification:
    """verify_expected_topology -> repair exactly the flagged frontiers."""

    def _moved_cable(self):
        truth = fat_tree(4, num_ports=6)
        blueprint = truth.copy()
        link = truth.links[0]
        a, b = link.a, link.b
        new_port = next(
            p
            for p in range(1, truth.num_ports(b.switch) + 1)
            if truth.peer(b.switch, p) is None and p != b.port
        )
        truth.remove_link(a.switch, a.port, b.switch, b.port)
        truth.add_link(a.switch, a.port, b.switch, new_port)
        return truth, blueprint

    def test_moved_cable_repaired(self):
        truth, blueprint = self._moved_cable()
        origin = truth.hosts[0]
        transport = OracleProbeTransport(truth, origin=origin)
        report = verify_expected_topology(transport, origin, blueprint)
        assert not report.clean
        repaired = repair(transport, origin, blueprint, report)
        assert repaired.view.same_wiring(truth)
        assert repaired.unreachable_frontiers == []

    def test_repair_is_cheaper_than_full_discovery(self):
        truth, blueprint = self._moved_cable()
        origin = truth.hosts[0]
        transport = OracleProbeTransport(truth, origin=origin)
        report = verify_expected_topology(transport, origin, blueprint)
        repaired = repair(transport, origin, blueprint, report)
        full = discover(OracleProbeTransport(truth, origin=origin), origin)
        # A moved cable breaks routes for every link verified through
        # it, so the collateral frontier is wide -- but still well
        # below a fabric-wide O(N * P^2) re-discovery.
        assert repaired.stats.probes_sent < 0.7 * full.stats.probes_sent

    def test_unplugged_host_repaired(self):
        blueprint = fat_tree(4, num_ports=6)
        truth = blueprint.copy()
        gone = next(h for h in truth.hosts if h != truth.hosts[0])
        truth.remove_host(gone)
        origin = truth.hosts[0]
        transport = OracleProbeTransport(truth, origin=origin)
        report = verify_expected_topology(transport, origin, blueprint)
        assert gone in report.missing_hosts
        repaired = repair(transport, origin, blueprint, report)
        assert repaired.view.same_wiring(truth)
        assert not repaired.view.has_host(gone)


class TestLiveEscalation:
    """A racked-in switch: a link-up probe run meets an unknown ID and
    recurses into the newcomer's ports."""

    JOIN_LINKS = [(1, "leaf0", 9), (2, "leaf1", 9), (3, "spine0", 9)]

    @pytest.fixture
    def fabric(self):
        fab = DumbNetFabric(
            leaf_spine(2, 2, 2, num_ports=16), controller_host="h0_0", seed=41
        )
        fab.bootstrap()
        return fab

    def test_new_switch_fully_mapped(self, fabric):
        fabric.hotplug_switch("NEWSW", 16, self.JOIN_LINKS)
        fabric.run_until_idle()
        ctl = fabric.controller
        assert ctl.view.has_switch("NEWSW")
        for new_port, sw, port in self.JOIN_LINKS:
            assert ctl.view.has_link("NEWSW", new_port, sw, port)
        assert ctl.view.same_wiring(fabric.topology)

    def test_single_escalation_not_full_discovery(self, fabric):
        fabric.hotplug_switch("NEWSW", 16, self.JOIN_LINKS)
        fabric.run_until_idle()
        ctl = fabric.controller
        assert ctl.rediscoveries_run == 1
        assert ctl.rediscovery_rounds >= 1
        full = discover(
            OracleProbeTransport(fabric.topology, origin="h0_0"), "h0_0"
        )
        assert 0 < ctl.rediscovery_probes_sent * 4 < full.stats.probes_sent

    def test_replicas_converge_through_delta_log(self, fabric):
        ctl = fabric.controller
        names = ["h0_0", "h0_1", "h1_0"]
        store = ReplicatedTopologyStore(names, ctl.view)
        ctl.replicator = store
        fabric.hotplug_switch("NEWSW", 16, self.JOIN_LINKS)
        fabric.run_until_idle()
        for name in names:
            replica = store.view_of(name)
            assert replica.has_switch("NEWSW")
            assert replica.same_wiring(ctl.view)

    def test_host_on_the_new_switch_joins_afterwards(self, fabric):
        fabric.hotplug_switch("NEWSW", 16, self.JOIN_LINKS)
        fabric.run_until_idle()
        fabric.hotplug_host("newbie", "NEWSW", 8)
        fabric.run_until_idle()
        view = fabric.controller.view
        assert view.has_host("newbie")
        assert view.host_port("newbie").switch == "NEWSW"


class TestSwitchJoinSchedule:
    """The fault-injection DSL's hot-add op."""

    def test_runner_applies_join_and_controller_maps_it(self):
        fabric = build_chaos_fabric(
            leaf_spine(2, 2, 2, num_ports=16),
            seed=7,
            controller_hosts=["h0_0"],
        )
        links = ((1, "leaf0", 9), (2, "spine1", 9))
        sched = FaultSchedule().add(FaultEvent(0.01, "switch-join", ("racked0", 8, links)))
        runner = ChaosRunner(fabric, sched)
        runner.install()
        fabric.network.run_until_idle()
        view = fabric.controller.view
        assert view.has_switch("racked0")
        assert view.has_link("racked0", 1, "leaf0", 9)
        assert view.has_link("racked0", 2, "spine1", 9)
        assert fabric.controller.rediscoveries_run == 1
