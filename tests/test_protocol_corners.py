"""Protocol corner cases: TTL-limited broadcasts, overlay coverage on
random fabrics, cache refresh paths."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_connected
from repro.core.fabric import DumbNetFabric
from repro.core.switch import NOTIFY_HOP_LIMIT
from repro.topology import line


class TestHopLimitedBroadcast:
    def test_far_hosts_still_learn_via_gossip(self):
        """Section 4.2: the switch broadcast carries a 5-hop limit "as
        modern data center topologies often have small diameters" -- on
        a 9-switch line, hosts beyond the TTL horizon must learn the
        failure through the host-to-host flood instead."""
        topo = line(9, hosts_per_switch=1, num_ports=8)
        fabric = DumbNetFabric(topo, controller_host="hL0_0", seed=2)
        fabric.adopt_blueprint()
        fabric.tracer.clear()
        # Fail at the far end: the broadcast cannot cross 8 hops.
        assert NOTIFY_HOP_LIMIT < 8
        fabric.fail_link("L7", 2, "L8", 1)
        fabric.run_until_idle()
        informed = set(fabric.tracer.first_time_per_node("news-received"))
        assert set(topo.hosts) <= informed

    def test_broadcast_alone_respects_ttl(self):
        """With gossip disabled, hosts beyond the TTL hear nothing --
        proving the flood (not the broadcast) covered them above."""
        topo = line(9, hosts_per_switch=1, num_ports=8)
        fabric = DumbNetFabric(topo, controller_host="hL0_0", seed=2)
        fabric.adopt_blueprint()
        for agent in fabric.agents.values():
            agent.gossip_neighbors = {}
        fabric.tracer.clear()
        fabric.fail_link("L7", 2, "L8", 1)
        fabric.run_until_idle()
        informed = set(fabric.tracer.first_time_per_node("news-received"))
        assert "hL0_0" not in informed  # 8 switch hops away: unreachable
        assert "hL8_0" in informed      # adjacent: direct broadcast


class TestOverlayCoverageProperty:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=9999),
    )
    def test_gossip_overlay_always_floods_everyone(self, n, extra, seed):
        """On any connected fabric, the computed overlay must let a
        flood starting anywhere reach every host."""
        topo = random_connected(
            n, extra_links=extra, hosts_per_switch=1, num_ports=12, seed=seed
        )
        fabric = DumbNetFabric(topo, controller_host=topo.hosts[0], seed=seed)
        fabric.controller.adopt_view(topo.copy())
        overlay = fabric.controller.compute_gossip_overlay()
        for start in topo.hosts:
            reached = {start}
            frontier = [start]
            while frontier:
                host = frontier.pop()
                for neighbor, _routes in overlay.get(host, ()):
                    if neighbor not in reached:
                        reached.add(neighbor)
                        frontier.append(neighbor)
            assert reached == set(topo.hosts), f"flood from {start} incomplete"


class TestCacheRefresh:
    def test_patch_refreshes_degraded_entries(self):
        """After a patch, destinations whose primaries thinned out are
        recomputed from the updated TopoCache."""
        from repro.topology import leaf_spine

        topo = leaf_spine(2, 2, 2, num_ports=16)
        fabric = DumbNetFabric(topo, controller_host="h0_0", seed=3)
        fabric.adopt_blueprint()
        src = fabric.agents["h0_1"]
        src.send_app("h1_1", "warm")
        fabric.run_until_idle()
        before = len(src.path_table.entry("h1_1").primaries)
        assert before >= 2
        fabric.fail_link("leaf0", 1, "spine0", 1)
        fabric.run_until_idle()
        entry = src.path_table.entry("h1_1")
        # The spine0 path is gone; the spine1 path must remain usable.
        assert entry is not None
        alive = entry.primaries
        assert alive
        assert all(p.switches[1] == "spine1" for p in alive)

    def test_install_only_if_degraded_keeps_full_entries(self):
        from repro.topology import leaf_spine

        topo = leaf_spine(4, 2, 2, num_ports=32)
        fabric = DumbNetFabric(topo, controller_host="h0_0", seed=4)
        fabric.adopt_blueprint()
        src = fabric.agents["h0_1"]
        src.send_app("h1_1", "warm")
        fabric.run_until_idle()
        entry = src.path_table.entry("h1_1")
        snapshot = list(entry.primaries)
        src._install_paths("h1_1", only_if_degraded=True)
        assert src.path_table.entry("h1_1").primaries == snapshot
