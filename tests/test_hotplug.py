"""Host hot-plug: a new server joins a running fabric."""

import pytest

from repro.core.fabric import DumbNetFabric
from repro.netsim import Tracer
from repro.topology import leaf_spine, paper_testbed


@pytest.fixture
def fabric():
    fab = DumbNetFabric(
        leaf_spine(2, 2, 2, num_ports=16), controller_host="h0_0", seed=41
    )
    fab.adopt_blueprint()
    return fab


class TestHotplug:
    def test_controller_discovers_new_host(self, fabric):
        fabric.hotplug_host("newbie", "leaf1", 9)
        fabric.run_until_idle()
        view = fabric.controller.view
        assert view.has_host("newbie")
        assert view.host_port("newbie").switch == "leaf1"

    def test_new_host_gets_announced(self, fabric):
        agent = fabric.hotplug_host("newbie", "leaf1", 9)
        fabric.run_until_idle()
        assert agent.controller == "h0_0"
        assert agent.attachment == ("leaf1", 9)
        assert agent.gossip_neighbors

    def test_new_host_can_send_immediately_after_join(self, fabric):
        agent = fabric.hotplug_host("newbie", "leaf1", 9)
        fabric.run_until_idle()
        agent.send_app("h0_1", "hello from the new box")
        fabric.run_until_idle()
        got = [d[2] for d in fabric.agents["h0_1"].delivered]
        assert "hello from the new box" in got

    def test_existing_hosts_can_reach_new_host(self, fabric):
        fabric.hotplug_host("newbie", "leaf1", 9)
        fabric.run_until_idle()
        fabric.agents["h0_1"].send_app("newbie", "welcome")
        fabric.run_until_idle()
        assert "welcome" in [d[2] for d in fabric.agents["newbie"].delivered]

    def test_join_is_replicated(self, fabric):
        from repro.consensus import ReplicatedTopologyStore

        store = ReplicatedTopologyStore(
            ["h0_0", "h1_0"], fabric.controller.view
        )
        fabric.controller.replicator = store
        fabric.hotplug_host("newbie", "leaf1", 9)
        fabric.run_until_idle()
        assert store.view_of("h1_0").has_host("newbie")

    def test_occupied_port_rejected(self, fabric):
        with pytest.raises(Exception):
            fabric.hotplug_host("clash", "leaf0", 1)  # spine uplink port

    def test_hotplugged_host_gets_perf_counters(self):
        """A hot-plugged host goes through the same wiring as a
        construction-time one, so it and its NIC channel are profiled."""
        tracer = Tracer(counters_enabled=True)
        fab = DumbNetFabric(
            leaf_spine(2, 2, 2, num_ports=16),
            controller_host="h0_0",
            seed=41,
            tracer=tracer,
        )
        fab.adopt_blueprint()
        agent = fab.hotplug_host("newbie", "leaf1", 9)
        fab.run_until_idle()
        agent.send_app("h0_1", "hello")
        fab.run_until_idle()
        counters = tracer.report().counters
        assert counters["device:newbie"]["frames"] > 0
        assert counters["nic:newbie"]["frames"] > 0

    def test_hotplug_on_testbed_scale(self):
        fab = DumbNetFabric(paper_testbed(), controller_host="h0_0", seed=5)
        fab.adopt_blueprint()
        agent = fab.hotplug_host("h28", "leaf4", 31)
        fab.run_until_idle()
        assert fab.controller.view.has_host("h28")
        agent.send_app("h2_2", "ping")
        fab.run_until_idle()
        assert "ping" in [d[2] for d in fab.agents["h2_2"].delivered]
