"""Controller tests: path service, gossip overlay, patches, reprobes."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_graph as ref
from repro.core.controller import GOSSIP_FANOUT
from repro.core.fabric import DumbNetFabric
from repro.core.messages import TopologyChange
from repro.topology import Topology, figure1, leaf_spine, paper_testbed


@pytest.fixture
def fabric():
    fab = DumbNetFabric(figure1(), controller_host="C3", seed=5)
    fab.bootstrap()
    return fab


class TestPathService:
    def test_request_produces_usable_paths(self, fabric):
        h1 = fabric.agents["H1"]
        h1.send_app("H2", "x")
        fabric.run_until_idle()
        entry = h1.path_table.entry("H2")
        assert entry is not None and entry.primaries
        # Every cached path must decode to a real route ending at H2.
        topo = fabric.topology
        for path in entry.primaries:
            assert ref.decode_tags(topo, "H1", list(path.tags))[-1] == "S4"

    def test_backup_path_cached(self, fabric):
        h4 = fabric.agents["H4"]
        h4.send_app("H5", "x")
        fabric.run_until_idle()
        entry = h4.path_table.entry("H5")
        assert entry.backup is not None
        # Backup must avoid the primary's first hop when possible.
        assert entry.backup.tags != entry.primaries[0].tags

    def test_served_counter(self, fabric):
        before = fabric.controller.path_requests_served
        fabric.agents["H1"].send_app("H5", "x")
        fabric.run_until_idle()
        assert fabric.controller.path_requests_served == before + 1

    def test_unknown_destination_not_found(self, fabric):
        h1 = fabric.agents["H1"]
        h1.send_app("nobody", "x")
        fabric.run_until_idle()
        assert h1.path_table.entry("nobody") is None


class TestGossipOverlay:
    def test_every_host_has_neighbors(self, fabric):
        overlay = fabric.controller.compute_gossip_overlay()
        for host in fabric.topology.hosts:
            assert overlay[host], f"{host} has no gossip neighbors"

    def test_controller_reachable_in_overlay(self, fabric):
        overlay = fabric.controller.compute_gossip_overlay()
        for host, neighbors in overlay.items():
            if host == "C3":
                continue
            names = {n for n, _tags in neighbors}
            assert "C3" in names or names, f"{host}: {names}"

    def test_overlay_floods_the_whole_network(self, fabric):
        """A message flooded along the overlay reaches every host."""
        overlay = fabric.controller.compute_gossip_overlay()
        reached = {"H1"}
        frontier = ["H1"]
        while frontier:
            host = frontier.pop()
            for neighbor, _tags in overlay[host]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        assert reached == set(fabric.topology.hosts)

    def test_fanout_cap_respected(self):
        topo = leaf_spine(2, 3, 6, num_ports=32)
        fab = DumbNetFabric(topo, controller_host="h0_0", seed=2)
        fab.adopt_blueprint()
        overlay = fab.controller.compute_gossip_overlay()
        for host, neighbors in overlay.items():
            assert len(neighbors) <= GOSSIP_FANOUT


class TestFailureStage2:
    def test_view_patched_on_link_down(self, fabric):
        assert fabric.controller.view.has_link("S2", 3, "S5", 2)
        fabric.fail_link("S2", 3, "S5", 2)
        fabric.run_until_idle()
        assert not fabric.controller.view.has_link("S2", 3, "S5", 2)

    def test_patch_reaches_all_hosts(self, fabric):
        fabric.fail_link("S2", 3, "S5", 2)
        fabric.run_until_idle()
        patched = fabric.tracer.first_time_per_node("patch-received")
        hosts = set(fabric.topology.hosts) - {"C3"}
        assert hosts <= set(patched)

    def test_patch_after_stage1(self, fabric):
        fabric.fail_link("S2", 3, "S5", 2)
        fabric.run_until_idle()
        news = fabric.tracer.first_time_per_node("news-received")
        patched = fabric.tracer.first_time_per_node("patch-received")
        for host in patched:
            if host in news:
                assert news[host] <= patched[host]

    def test_replicator_hook_called(self, fabric):
        log = []

        class FakeReplicator:
            def append(self, change):
                log.append(change)

        fabric.controller.replicator = FakeReplicator()
        fabric.fail_link("S2", 3, "S5", 2)
        fabric.run_until_idle()
        assert any(
            isinstance(c, TopologyChange) and c.op == "link-down" for c in log
        )


class TestReprobe:
    def test_link_restoration_rediscovered(self, fabric):
        fabric.fail_link("S2", 3, "S5", 2)
        fabric.run_until_idle()
        assert not fabric.controller.view.has_link("S2", 3, "S5", 2)
        fabric.restore_link("S2", 3, "S5", 2)
        fabric.run_until_idle()
        assert fabric.controller.view.has_link("S2", 3, "S5", 2)
        assert fabric.controller.reprobes_run >= 1

    def test_restored_link_usable_by_hosts(self, fabric):
        # Cut BOTH links to S5 so H5 is unreachable, then restore one.
        fabric.fail_link("S2", 3, "S5", 2)
        fabric.fail_link("S4", 3, "S5", 1)
        fabric.run_until_idle()
        fabric.restore_link("S4", 3, "S5", 1)
        fabric.run_until_idle()
        h4 = fabric.agents["H4"]
        h4.send_app("H5", "revived")
        fabric.run_until_idle()
        assert "revived" in [d[2] for d in fabric.agents["H5"].delivered]

    def test_restored_cable_of_a_bundle_relearned(self):
        # A:2's scan bounces home over both cables of the bundle, and
        # B:1 is the first candidate: the run must pass over it (its far
        # port is already held by A:1) and wire the free B:2.
        fab = DumbNetFabric(bundle_pair(), controller_host="ha", seed=1)
        fab.bootstrap()
        ctl = fab.controller
        fab.fail_link("A", 2, "B", 2)
        fab.run_until_idle()
        assert not ctl.view.has_link("A", 2, "B", 2)
        fab.restore_link("A", 2, "B", 2)
        fab.run_until_idle()
        assert ctl.view.same_wiring(fab.topology)


def bundle_pair():
    """Two switches joined by a two-cable bundle, one host on each."""
    topo = Topology()
    topo.add_switch("A", 4)
    topo.add_switch("B", 4)
    topo.add_link("A", 1, "B", 1)
    topo.add_link("A", 2, "B", 2)
    topo.add_host("ha", "A", 3)
    topo.add_host("hb", "B", 3)
    return topo


def lowest_free_port(topo, switch):
    return next(
        p for p in range(1, topo.num_ports(switch) + 1) if topo.peer(switch, p) is None
    )


@st.composite
def small_fabrics(draw):
    """2-4 switches: a random spanning tree plus up to three extra
    cables that may join a bundle, then one host per switch.  Cables
    take the lowest free port at both ends, so every bundle pairs its
    ports in the same order on both switches (a crossed bundle is
    unobservable: EXPERIMENTS.md, known deviation 5)."""
    n = draw(st.integers(2, 4))
    topo = Topology()
    names = [f"S{i}" for i in range(n)]
    for name in names:
        topo.add_switch(name, 8)
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda p: p[0] != p[1]), max_size=3))
    for i, j in pairs:
        a, b = names[i], names[j]
        topo.add_link(a, lowest_free_port(topo, a), b, lowest_free_port(topo, b))
    for i, name in enumerate(names):
        topo.add_host(f"h{i}", name, lowest_free_port(topo, name))
    return topo


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(truth=small_fabrics(), picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
def test_restored_cables_relearned(truth, picks):
    """Fail a random set of cables, restore them all at once: the view
    ends up wired like the fabric again.  The set leaves the fabric
    connected (a switch the view cannot route to is retried only
    ``reprobe_retries`` times) and takes at most one cable per bundle
    (two cables of one bundle restored together may be paired crossed,
    which no probe can tell apart)."""
    fab = DumbNetFabric(truth, controller_host="h0", seed=3)
    fab.bootstrap()
    rest = truth.copy()
    failed = []
    for pick in picks:
        links = sorted((l.a.switch, l.a.port, l.b.switch, l.b.port) for l in rest.links)
        edge = links[pick % len(links)]
        if any({e[0], e[2]} == {edge[0], edge[2]} for e in failed):
            continue
        rest.remove_link(*edge)
        if not rest.is_connected():
            rest.add_link(*edge)
            continue
        failed.append(edge)
    for edge in failed:
        fab.fail_link(*edge)
    fab.run_until_idle()
    for edge in failed:
        fab.restore_link(*edge)
    fab.run_until_idle()
    assert fab.controller.view.same_wiring(truth)


class TestBlueprintBootstrap:
    def test_adopt_blueprint_matches_discovery(self):
        topo = paper_testbed()
        by_probe = DumbNetFabric(topo.copy(), controller_host="h0_0", seed=1)
        probe_view = by_probe.bootstrap().view
        by_blueprint = DumbNetFabric(topo.copy(), controller_host="h0_0", seed=1)
        by_blueprint.adopt_blueprint()
        assert by_blueprint.controller.view.same_wiring(probe_view)


class TestReprobeRearm:
    """Link-up news arriving while a reprobe session is already in
    flight must re-arm a fresh session after the active one finalizes,
    not vanish -- otherwise a port whose first session came up empty
    (lossy fabric, no retries) stays unknown forever."""

    def test_link_up_during_inflight_session_survives(self, monkeypatch):
        from repro.core import controller
        from repro.core.messages import PortStateNotification

        monkeypatch.setattr(controller, "REPROBE_RETRIES", 0)
        fab = DumbNetFabric(figure1(), controller_host="C3", seed=5)
        fab.bootstrap()
        ctl = fab.controller
        edge = ("S2", 3, "S5", 2)
        fab.fail_link(*edge)
        fab.run_until_idle()
        assert ctl.view.peer("S2", 3) is None
        # Every probe crossing the restored cable vanishes: the first
        # sessions will come up empty, and retries are disabled.
        channel = fab.network.link_channel(*edge)
        channel.loss_rate = 1.0
        fab.restore_link(*edge)
        # Deliver the link-up news by hand: the switches' own alarms
        # sit behind ALARM_SUPPRESS_SECONDS, and the contract under
        # test is the controller's, however the news gets there.
        ctl.on_news(PortStateNotification(switch="S2", port=3, up=True, seq=901))
        ctl.on_news(PortStateNotification(switch="S5", port=2, up=True, seq=902))
        fab.run(until=fab.now + 0.005)
        # Both scans in flight, their probes already lost.
        assert ctl._probe_runs == {("S2", 3): False, ("S5", 2): False}
        # Fresh link-up news lands while those sessions are still
        # inside their settle window (the cable flapped again).
        ctl.on_news(PortStateNotification(switch="S2", port=3, up=True, seq=903))
        ctl.on_news(PortStateNotification(switch="S5", port=2, up=True, seq=904))
        # The re-armed follow-up sessions probe a healthy cable.  Stop
        # well before the switches' own suppressed alarms re-fire
        # (ALARM_SUPPRESS_SECONDS ~ 1s): without the re-arm, the view
        # stays stale for that whole window; with it, the follow-up
        # session heals the link right after the first one finalizes.
        channel.loss_rate = 0.0
        fab.run(until=fab.now + 0.3)
        assert ctl.view.has_link("S2", 3, "S5", 2)
        fab.run_until_idle()
