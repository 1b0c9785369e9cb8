"""Controller replication and failover on a live fabric."""

import pytest

from repro.core.controller import Controller
from repro.core.fabric import DumbNetFabric
from repro.core.replication import ReplicatedControlPlane, ReplicationError
from repro.topology import paper_testbed


def build_plane():
    """A fabric whose first three hosts are controller-capable."""
    fabric = DumbNetFabric.from_topology(
        paper_testbed(),
        bootstrap="blueprint",
        controller_host="h0_0",
        standbys=("h1_0", "h2_0"),
    )
    return fabric.network, fabric.agents, fabric.plane, fabric.tracer


class TestReplicatedControlPlane:
    def test_changes_replicate(self):
        network, agents, plane, _tracer = build_plane()
        network.fail_link("leaf3", 1, "spine0", 4)
        network.run_until_idle()
        for replica in ("h1_0", "h2_0"):
            assert not plane.store.view_of(replica).has_link(
                "leaf3", 1, "spine0", 4
            )

    def test_failover_promotes_standby(self):
        network, agents, plane, _tracer = build_plane()
        network.fail_link("leaf3", 1, "spine0", 4)
        network.run_until_idle()
        new_primary = plane.fail_primary()
        network.run_until_idle()
        assert new_primary.name in ("h1_0", "h2_0")
        assert new_primary.view is not None
        assert not new_primary.view.has_link("leaf3", 1, "spine0", 4)

    def test_hosts_retarget_queries_after_failover(self):
        network, agents, plane, _tracer = build_plane()
        new_primary = plane.fail_primary()
        network.run_until_idle()
        # A host that never talked to anyone now asks for a path: the
        # announcement pointed it at the new controller.
        src = agents["h4_1"]
        assert src.controller == new_primary.name
        src.send_app("h3_2", "post-failover")
        network.run_until_idle()
        assert "post-failover" in [d[2] for d in agents["h3_2"].delivered]

    def test_new_primary_handles_failures(self):
        network, agents, plane, _tracer = build_plane()
        new_primary = plane.fail_primary()
        network.run_until_idle()
        network.fail_link("leaf4", 2, "spine1", 5)
        network.run_until_idle()
        assert not new_primary.view.has_link("leaf4", 2, "spine1", 5)

    def test_standbys_must_be_controllers(self):
        network, agents, plane, _tracer = build_plane()
        with pytest.raises(ReplicationError):
            ReplicatedControlPlane(
                network, plane.primary, [agents["h4_4"]]
            )

    def test_unbootstrapped_primary_rejected(self):
        network, agents, _plane, _tracer = build_plane()
        fresh = Controller("ghost", network.loop)
        with pytest.raises(ReplicationError):
            ReplicatedControlPlane(network, fresh, [])


class TestSerializationRoundTrip:
    def test_blueprint_roundtrip(self):
        from repro.topology import dumps, loads

        topo = paper_testbed()
        clone = loads(dumps(topo))
        assert clone.same_wiring(topo)

    def test_bad_blueprints_rejected(self):
        from repro.topology import TopologyError, topology_from_dict

        with pytest.raises(TopologyError):
            topology_from_dict({"format": 99})
        with pytest.raises(TopologyError):
            topology_from_dict({"format": 1})
        with pytest.raises(TopologyError):
            topology_from_dict(
                {"format": 1, "switches": {"S": 4}, "links": [["S", 1, "T"]]}
            )

    def test_discovered_view_serializes(self):
        from repro.topology import dumps, loads

        fab = DumbNetFabric(paper_testbed(), controller_host="h0_0", seed=2)
        result = fab.bootstrap()
        clone = loads(dumps(result.view))
        assert clone.same_wiring(result.view)


class TestApplyReconciliation:
    def test_divergent_replica_reconverges_with_signal(self):
        """Regression: apply_change silently skipped a committed link-up
        whose ports a divergent replica believed occupied, so that
        replica's view drifted forever with no signal.  Committed
        records are authoritative: the stale occupant is evicted (and
        counted) instead."""
        from repro.consensus.store import ReplicatedTopologyStore
        from repro.core.messages import TopologyChange
        from repro.topology.graph import Topology

        topo = Topology()
        for name in ("s0", "s1", "s2"):
            topo.add_switch(name, 4)
        topo.add_link("s0", 1, "s1", 1)
        store = ReplicatedTopologyStore(["a", "b", "c"], topo)
        # Diverge replica c behind the quorum's back: it believes a
        # stale link occupies the port the committed record needs.
        rogue = store.view_of("c")
        rogue.remove_link("s0", 1, "s1", 1)
        rogue.add_link("s0", 1, "s2", 1)
        store.append(TopologyChange(op="link-up", args=("s0", 1, "s1", 1)))
        leader = store.primary
        for name in ("a", "b", "c"):
            assert store.view_of(name).same_wiring(store.view_of(leader)), name
        assert store.apply_stats["c"]["reconciled"] >= 1
        assert store.total_drops() == 0

    def test_fabric_report_surfaces_replica_drops(self):
        """A committed record that cannot apply at all is counted as
        dropped per replica and surfaced through FabricReport."""
        from repro.core.telemetry import TelemetryCollector

        network, agents, plane, _tracer = build_plane()
        # Diverge h2_0's replica: it already lost the link the quorum
        # is about to commit down, so the record cannot apply there.
        plane.store.view_of("h2_0").remove_link("leaf3", 1, "spine0", 4)
        network.fail_link("leaf3", 1, "spine0", 4)
        network.run_until_idle()
        assert plane.store.apply_stats["h2_0"]["dropped"] == 1
        assert plane.store.total_drops() == 1
        report = TelemetryCollector(plane.primary, network).collect()
        assert report.replication["h2_0"]["dropped"] == 1
        assert "DROPPED" in report.summary()
        assert report.as_dict()["replication"]["h2_0"]["dropped"] == 1


class TestStandbyTypeCheck:
    def test_rejection_names_the_offending_type(self):
        """The error must say what was passed, not just refuse."""
        network, agents, plane, _tracer = build_plane()
        with pytest.raises(ReplicationError, match="HostAgent"):
            ReplicatedControlPlane(
                network, plane.primary, [agents["h4_4"]]
            )


class TestFabricStandbys:
    """``DumbNetFabric(standbys=...)`` is the one replicated assembly."""

    @pytest.mark.parametrize("bootstrap", ["blueprint", "discover"])
    def test_every_replica_matches_the_primary(self, bootstrap):
        fabric = DumbNetFabric.from_topology(
            paper_testbed(),
            bootstrap=bootstrap,
            controller_host="h0_0",
            standbys=("h1_0", "h2_0"),
            seed=4,
        )
        plane = fabric.plane
        assert plane is not None and fabric.controller is plane.primary
        assert [s.name for s in plane.standbys] == ["h1_0", "h2_0"]
        fabric.fail_link("leaf3", 1, "spine0", 4)
        fabric.run_until_idle()
        primary_view = fabric.controller.view
        assert not primary_view.has_link("leaf3", 1, "spine0", 4)
        for name in ("h0_0", "h1_0", "h2_0"):
            assert plane.store.view_of(name).same_wiring(primary_view), name

    def test_controller_follows_failover(self):
        from repro.faultinject import ChaosRunner, FaultSchedule

        fabric = DumbNetFabric.from_topology(
            paper_testbed(),
            bootstrap="blueprint",
            controller_host="h0_0",
            standbys=("h1_0", "h2_0"),
        )
        first = fabric.controller
        ChaosRunner(fabric, FaultSchedule().controller_failover(0.01)).install()
        fabric.run_until_idle()
        promoted = fabric.controller
        assert promoted is fabric.plane.primary
        assert promoted is not first
        assert promoted.name in ("h1_0", "h2_0")
        assert promoted is fabric.agents[promoted.name]
        assert fabric.observe().as_dict()["controller"]["name"] == promoted.name

    def test_no_standbys_no_plane(self):
        fabric = DumbNetFabric.from_topology(
            paper_testbed(), bootstrap="blueprint", controller_host="h0_0"
        )
        assert fabric.plane is None
        assert fabric.controller is fabric.agents["h0_0"]

    @pytest.mark.parametrize(
        "standbys",
        [("h9_9",), ("h1_0", "h1_0"), ("h0_0",), ("h1_0", "h0_0")],
        ids=["unknown", "duplicate", "controller-host", "controller-host-later"],
    )
    def test_bad_standbys_rejected(self, standbys):
        with pytest.raises(ValueError, match="standbys must be distinct"):
            DumbNetFabric(paper_testbed(), "h0_0", standbys=standbys)
