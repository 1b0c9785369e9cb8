"""The fault-injection subsystem: schedule DSL, chaos runner,
invariants, and the failure-handling hardening it exercises."""

import pytest

from repro.core.pathcache import BINDING_DEAD
from repro.faultinject import (
    ChaosRunner,
    FaultEvent,
    FaultSchedule,
    ScheduleError,
    build_chaos_fabric,
    down_ports,
    residual_topology,
)
from repro.topology import fat_tree, figure1, paper_testbed


class TestScheduleDsl:
    def test_flap_emits_down_then_up(self):
        sched = FaultSchedule().link_flap(0.1, ("A", 1, "B", 2), down_for=0.05)
        events = sched.events()
        assert [e.kind for e in events] == ["link-down", "link-up"]
        assert events[0].time == 0.1
        assert events[1].time == pytest.approx(0.15)

    def test_events_sorted_by_time(self):
        sched = (
            FaultSchedule()
            .switch_crash(0.5, "S1", restart_after=0.1)
            .link_down(0.2, ("A", 1, "B", 2))
        )
        times = [e.time for e in sched.events()]
        assert times == sorted(times)
        assert sched.horizon == 0.6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScheduleError):
            FaultEvent(0.1, "meteor-strike")

    def test_negative_time_rejected(self):
        with pytest.raises(ScheduleError):
            FaultEvent(-0.1, "link-down", ("A", 1, "B", 2))

    def test_channel_burst_needs_exactly_one_target(self):
        with pytest.raises(ScheduleError):
            FaultSchedule().loss_burst(0.1, 0.1, rate=0.5)
        with pytest.raises(ScheduleError):
            FaultSchedule().loss_burst(
                0.1, 0.1, rate=0.5, link=("A", 1, "B", 2), host="H1"
            )

    def test_bursts_self_heal(self):
        sched = FaultSchedule().loss_burst(
            0.1, 0.2, rate=0.5, link=("A", 1, "B", 2)
        )
        kinds = [e.kind for e in sched.events()]
        assert kinds == ["loss-start", "loss-end"]

    def test_digest_is_stable(self):
        build = lambda: FaultSchedule().link_flap(
            0.1, ("A", 1, "B", 2), down_for=0.05
        )
        assert build().digest() == build().digest()
        other = FaultSchedule().link_flap(0.2, ("A", 1, "B", 2), down_for=0.05)
        assert build().digest() != other.digest()


class TestRandomSchedule:
    def test_same_seed_same_timeline(self):
        topo = fat_tree(4)
        a = FaultSchedule.random(topo, seed=5, n_faults=20)
        b = FaultSchedule.random(topo, seed=5, n_faults=20)
        assert a.describe() == b.describe()
        assert a.digest() == b.digest()

    def test_different_seeds_differ(self):
        topo = fat_tree(4)
        a = FaultSchedule.random(topo, seed=5, n_faults=20)
        b = FaultSchedule.random(topo, seed=6, n_faults=20)
        assert a.digest() != b.digest()

    def test_includes_crash_and_failover(self):
        topo = fat_tree(4)
        kinds = {e.kind for e in FaultSchedule.random(topo, seed=5).events()}
        assert "switch-crash" in kinds and "switch-restart" in kinds
        assert "controller-failover" in kinds

    def test_protect_hosts_excludes_controllers(self):
        topo = fat_tree(4)
        protected = tuple(sorted(topo.hosts)[:3])
        sched = FaultSchedule.random(
            topo, seed=5, n_faults=40, protect_hosts=protected
        )
        for event in sched.events():
            if event.kind.startswith("loss") and event.args[:1] == ("host",):
                assert event.args[1] not in protected


class TestGroundTruthHelpers:
    def test_down_ports_tracks_failed_links_and_switches(self):
        fabric = build_chaos_fabric(figure1(), seed=1, controller_hosts=["H1"])
        assert down_ports(fabric.network) == set()
        fabric.network.fail_link("S2", 3, "S5", 2)
        assert down_ports(fabric.network) == {("S2", 3), ("S5", 2)}
        fabric.network.fail_switch("S4")
        dead = down_ports(fabric.network)
        assert ("S4", 1) in dead and ("S4", 3) in dead

    def test_residual_topology_drops_failed_elements(self):
        fabric = build_chaos_fabric(figure1(), seed=1, controller_hosts=["H1"])
        fabric.network.fail_link("S2", 3, "S5", 2)
        fabric.network.fail_switch("S3")
        fabric.network.host_channel("H2").fail()
        residual = residual_topology(fabric.network)
        assert not residual.has_link("S2", 3, "S5", 2)
        assert not residual.has_switch("S3")
        assert not residual.has_host("H3")  # attached to the dead S3
        assert not residual.has_host("H2")  # partitioned NIC
        assert residual.has_host("H5")


class TestChaosRunner:
    def run_scripted(self, seed=3):
        topo = paper_testbed()
        fabric = build_chaos_fabric(
            topo, seed=seed, controller_hosts=["h0_0", "h1_0"]
        )
        sched = (
            FaultSchedule()
            .link_flap(0.05, ("leaf2", 1, "spine0", 3), down_for=0.05)
            .loss_burst(0.10, 0.05, rate=0.4, link=("leaf3", 2, "spine1", 4))
            .switch_crash(0.20, "spine1", restart_after=0.08)
            .add(FaultEvent(0.35, "host-partition", ("h4_0",)))
            .add(FaultEvent(0.35 + 0.05, "host-rejoin", ("h4_0",)))
        )
        runner = ChaosRunner(fabric, sched, traffic_seed=seed)
        return runner.run()

    def test_scripted_run_recovers_cleanly(self):
        report = self.run_scripted()
        assert report.violations == []
        assert report.failed_pairs == []
        assert report.reconnected_pairs > 0
        assert len(report.applied) == 8
        assert report.traffic_delivered > 0

    def test_timeline_digest_reproducible(self):
        first = self.run_scripted()
        again = self.run_scripted()
        assert first.timeline_digest() == again.timeline_digest()
        assert first.applied == again.applied

    def test_resolver_targets_are_resolved_at_fire_time(self):
        fabric = build_chaos_fabric(
            paper_testbed(), seed=3, controller_hosts=["h0_0"]
        )

        def pick(chaos):
            return ("leaf2", 1, "spine0", 3)

        sched = FaultSchedule().link_down(0.05, pick)
        runner = ChaosRunner(fabric, sched)
        runner.install()
        fabric.network.run_until_idle()
        assert not fabric.network.link_channel("leaf2", 1, "spine0", 3).up
        assert "link-down leaf2 1 spine0 3" in runner.report.applied[0]

    def test_failover_without_standbys_is_an_error(self):
        fabric = build_chaos_fabric(
            paper_testbed(), seed=3, controller_hosts=["h0_0"]
        )
        runner = ChaosRunner(fabric, FaultSchedule().controller_failover(0.01))
        with pytest.raises(RuntimeError):
            runner.install()
            fabric.network.run_until_idle()


class TestControllerHardening:
    def test_announce_retries_until_view_heals(self):
        """A host unreachable in the view at announce time is re-tried
        instead of being stranded on a dead controller forever."""
        fabric = build_chaos_fabric(figure1(), seed=1, controller_hosts=["H1"])
        ctl = fabric.controller
        # Carve every route to H5 out of the view, then announce.
        ctl.view.remove_link("S2", 3, "S5", 2)
        ctl.view.remove_link("S4", 3, "S5", 1)
        fabric.agents["H5"].controller = "stale"
        ctl.announce_all()
        # Run past the first delivery but short of the first retry --
        # run_until_idle would burn the whole retry chain at once.
        fabric.network.run(until=fabric.network.now + 0.1)
        assert fabric.agents["H5"].controller == "stale"  # still unreachable
        # The view heals; the pending retry must pick it up.
        ctl.view.add_link("S4", 3, "S5", 1)
        fabric.network.run_until_idle()
        assert fabric.agents["H5"].controller == ctl.name
        assert ctl.announces_retried >= 1

    def test_reprobe_unknown_ports_heals_view_holes(self):
        """A promoted primary re-verifies ports its adopted view knows
        nothing about -- the fabric is intact, so probing restores the
        missing link."""
        fabric = build_chaos_fabric(figure1(), seed=1, controller_hosts=["H1"])
        ctl = fabric.controller
        ctl.view.remove_link("S2", 3, "S5", 2)
        # Every view-unknown port is verified (including genuinely
        # empty ones); the two orphaned by the removal are among them.
        assert ctl.reprobe_unknown_ports() >= 2
        fabric.network.run_until_idle()
        assert ctl.view.has_link("S2", 3, "S5", 2)

    def test_binding_dead_constant_exported(self):
        assert BINDING_DEAD == -1
