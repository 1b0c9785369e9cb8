"""Controller replication and failover on a live fabric."""

import pytest

from repro.core.controller import Controller, ControllerConfig
from repro.core.fabric import DumbNetFabric
from repro.core.host_agent import HostAgent
from repro.core.replication import ReplicatedControlPlane, ReplicationError
from repro.netsim import Network
from repro.topology import paper_testbed


def build_plane():
    """A fabric whose first three hosts are controller-capable."""
    topo = paper_testbed()
    controller_hosts = ["h0_0", "h1_0", "h2_0"]
    agents = {}
    tracer_box = {}

    from repro.core.switch import DumbSwitch
    from repro.netsim.trace import Tracer

    tracer = Tracer()

    def make_switch(name, ports, network):
        return DumbSwitch(name, ports, network.loop, tracer=tracer)

    def make_host(name, network):
        if name in controller_hosts:
            agent = Controller(name, network.loop, tracer=tracer)
        else:
            agent = HostAgent(name, network.loop, tracer=tracer)
        agents[name] = agent
        return agent

    network = Network(topo, make_switch, make_host, tracer=tracer)
    primary = agents["h0_0"]
    primary.adopt_view(topo.copy())
    primary.announce_all()
    network.run_until_idle()
    plane = ReplicatedControlPlane(
        network, primary, [agents["h1_0"], agents["h2_0"]]
    )
    return network, agents, plane, tracer


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
                network, plane.current_primary, [agents["h4_4"]]
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
        report = TelemetryCollector(plane.current_primary, network).collect()
        assert report.replication["h2_0"]["dropped"] == 1
        assert "DROPPED" in report.summary()
        assert report.as_dict()["replication"]["h2_0"]["dropped"] == 1


class TestStandbyTypeCheck:
    def test_rejection_names_the_offending_type(self):
        """The error must say what was passed, not just refuse."""
        network, agents, plane, _tracer = build_plane()
        with pytest.raises(ReplicationError, match="HostAgent"):
            ReplicatedControlPlane(
                network, plane.current_primary, [agents["h4_4"]]
            )
