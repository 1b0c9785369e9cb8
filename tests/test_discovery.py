"""Topology discovery tests: oracle transport, BFS, verification mode."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_connected, repair
from repro.core.discovery import (
    DiscoveryError,
    DiscoveryStats,
    OracleProbeTransport,
    ProbeSpec,
    _retrying_round,
    discover,
    route_tags,
    verify_expected_topology,
)
from repro.core.packet import ID_QUERY
from repro.topology import (
    Topology,
    cube,
    fat_tree,
    figure1,
    jellyfish,
    leaf_spine,
    line,
    paper_testbed,
    ring,
)


class TestOracleWalk:
    """The oracle must mirror DumbSwitch semantics exactly."""

    def test_bounce_with_id(self):
        topo = figure1()
        transport = OracleProbeTransport(topo, "C3")
        # 0-9-ø: query S3's ID, come straight back.
        (outcome,) = transport.probe_round([ProbeSpec(tags=(ID_QUERY, 9))])
        assert outcome is not None and outcome.kind == "id"
        assert outcome.switch_id == "S3"

    def test_link_bounce_from_paper(self):
        topo = figure1()
        transport = OracleProbeTransport(topo, "C3")
        # Section 4.1: PM 1-0-1-9-ø discovers S1 via the S3-1/S1-1 link.
        (outcome,) = transport.probe_round(
            [ProbeSpec(tags=(1, ID_QUERY, 1, 9))]
        )
        assert outcome.kind == "id" and outcome.switch_id == "S1"

    def test_host_probe_from_paper(self):
        topo = figure1()
        transport = OracleProbeTransport(topo, "C3")
        # PM to S3 port 5 reaches H3, which replies along 9-ø.
        (outcome,) = transport.probe_round(
            [ProbeSpec(tags=(5,), reply_tags=(9,))]
        )
        assert outcome.kind == "host" and outcome.host == "H3"

    def test_lost_probe(self):
        topo = figure1()
        transport = OracleProbeTransport(topo, "C3")
        (outcome,) = transport.probe_round([ProbeSpec(tags=(8,))])  # empty port
        assert outcome is None

    def test_host_with_extra_tags_dropped(self):
        topo = figure1()
        transport = OracleProbeTransport(topo, "C3")
        (outcome,) = transport.probe_round(
            [ProbeSpec(tags=(5, 3), reply_tags=(9,))]
        )
        assert outcome is None

    def test_ambiguity_bounces_both_ways(self):
        """Section 4.1: probing S1's port 2 bounces for two different
        return ports because S1 and S2 share the return path 1-9-ø."""
        topo = figure1()
        transport = OracleProbeTransport(topo, "C3")
        outcomes = transport.probe_round(
            [
                ProbeSpec(tags=(1, 2, ID_QUERY, 1) + (1, 9)),
                ProbeSpec(tags=(1, 2, ID_QUERY, 2) + (1, 9)),
            ]
        )
        # r=1 returns via S2, r=2 returns via S1; both reach C3 and both
        # report S4's ID (the 0 tag was consumed at S4).
        assert all(o is not None and o.switch_id == "S4" for o in outcomes)

    def test_verification_probe_distinguishes(self):
        topo = figure1()
        transport = OracleProbeTransport(topo, "C3")
        outcomes = transport.probe_round(
            [
                ProbeSpec(tags=(1, 2, 1, ID_QUERY) + (1, 9)),
                ProbeSpec(tags=(1, 2, 2, ID_QUERY) + (1, 9)),
            ]
        )
        # S4 out port 1 transits S2; out port 2 transits S1.
        assert outcomes[0].switch_id == "S2"
        assert outcomes[1].switch_id == "S1"

    def test_reply_counts_as_message(self):
        """A remote host's reply is one message: the reply received, not
        a second probe sent (the emulated transport counts it so too)."""
        topo = figure1()
        transport = OracleProbeTransport(topo, "C3")
        transport.probe_round([ProbeSpec(tags=(5,), reply_tags=(9,))])
        assert transport.probes_sent == 1
        assert transport.replies_received == 1


class TestDiscovery:
    @pytest.mark.parametrize(
        "topo_factory,origin",
        [
            (figure1, "C3"),
            (lambda: line(4), "hL0_0"),
            (lambda: ring(5), "hR2_0"),
            (paper_testbed, "h0_0"),
            (lambda: leaf_spine(2, 3, 2, num_ports=16), "h1_0"),
            (lambda: fat_tree(4), "h0_0_0"),
            (lambda: cube([3, 3], num_ports=8), "h0_0_0"),
            (lambda: jellyfish(10, 3, seed=4), "h_j0_0"),
            (lambda: random_connected(8, extra_links=4, seed=9), "h_r3_0"),
        ],
    )
    def test_full_discovery_matches_ground_truth(self, topo_factory, origin):
        topo = topo_factory()
        result = discover(OracleProbeTransport(topo, origin), origin)
        assert result.view.same_wiring(topo), (
            f"discovered {result.view.summary()} != truth {topo.summary()}"
        )

    def test_origin_attachment(self):
        topo = figure1()
        result = discover(OracleProbeTransport(topo, "C3"), "C3")
        assert result.origin_attachment == ("S3", 9)

    def test_ambiguities_resolved_on_figure1(self):
        topo = figure1()
        result = discover(OracleProbeTransport(topo, "C3"), "C3")
        assert result.stats.ambiguities_resolved >= 1
        assert result.stats.verifications >= result.stats.ambiguities_resolved

    def test_unreachable_host_raises(self):
        topo = Topology()
        topo.add_switch("S", 4)
        topo.add_host("lonely", "S", 1)
        # Break the attachment by building the oracle against a copy
        # where the host's switch has zero usable return: simulate by
        # probing from a host on a switch with no ports beyond its own.
        # A host alone on a switch still finds it, so instead check the
        # error path with a zero-port transport.
        transport = OracleProbeTransport(topo, "lonely")
        transport.max_ports = 0
        with pytest.raises(DiscoveryError):
            discover(transport, "lonely")

    def test_partial_network_after_cut(self):
        topo = figure1()
        topo.remove_link("S2", 3, "S5", 2)
        topo.remove_link("S4", 3, "S5", 1)
        result = discover(OracleProbeTransport(topo, "C3"), "C3")
        # S5 and H5 are unreachable and must not appear.
        assert not result.view.has_switch("S5")
        assert not result.view.has_host("H5")
        assert result.view.has_switch("S4")

    def test_probe_complexity_quadratic_in_ports(self):
        """Section 4.1: O(N * P^2) probing messages."""
        counts = {}
        for ports in (6, 12):
            topo = ring(4, num_ports=ports)
            transport = OracleProbeTransport(topo, "hR0_0")
            discover(transport, "hR0_0")
            counts[ports] = transport.probes_sent
        ratio = counts[12] / counts[6]
        # Doubling P should roughly quadruple the probes (within slack
        # for the linear host-probe and phase-0 terms).
        assert 3.0 < ratio < 5.0

    def test_probe_complexity_linear_in_switches(self):
        counts = {}
        for n in (4, 8):
            topo = line(n, num_ports=8)
            transport = OracleProbeTransport(topo, "hL0_0")
            discover(transport, "hL0_0")
            counts[n] = transport.probes_sent
        ratio = counts[8] / counts[4]
        assert 1.6 < ratio < 2.6


class TestRouteTags:
    def test_roundtrip_on_figure1(self):
        topo = figure1()
        to_tags, from_tags = route_tags(topo, "C3", "S4")
        # Forward tags must land a probe on S4; verify via oracle walk.
        transport = OracleProbeTransport(topo, "C3")
        (outcome,) = transport.probe_round(
            [ProbeSpec(tags=to_tags + (ID_QUERY,) + from_tags)]
        )
        assert outcome is not None and outcome.switch_id == "S4"

    def test_own_switch(self):
        topo = figure1()
        to_tags, from_tags = route_tags(topo, "C3", "S3")
        assert to_tags == ()
        assert from_tags == (9,)

    def test_unreachable_switch(self):
        topo = figure1()
        topo.add_switch("island", 4)
        with pytest.raises(DiscoveryError):
            route_tags(topo, "C3", "island")


class TestVerificationBootstrap:
    def test_clean_blueprint(self):
        topo = paper_testbed()
        transport = OracleProbeTransport(topo, "h0_0")
        report = verify_expected_topology(transport, "h0_0", topo)
        assert report.clean
        assert report.confirmed_links == len(topo.links)
        assert report.confirmed_hosts == len(topo.hosts) - 1  # minus origin

    def test_verification_is_cheap(self):
        """O(links + hosts) probes, not O(N * P^2)."""
        topo = paper_testbed()
        verify_transport = OracleProbeTransport(topo, "h0_0")
        verify_expected_topology(verify_transport, "h0_0", topo)
        full_transport = OracleProbeTransport(topo, "h0_0")
        discover(full_transport, "h0_0")
        assert verify_transport.probes_sent < full_transport.probes_sent / 10

    def test_detects_missing_link(self):
        truth = paper_testbed()
        blueprint = truth.copy()
        truth.remove_link("leaf0", 1, "spine0", 1)
        transport = OracleProbeTransport(truth, "h1_0")
        report = verify_expected_topology(transport, "h1_0", blueprint)
        assert not report.clean
        assert ("leaf0", 1, "spine0", 1) in report.missing_links or (
            "spine0", 1, "leaf0", 1
        ) in report.missing_links

    def test_detects_missing_host(self):
        truth = paper_testbed()
        blueprint = truth.copy()
        truth.remove_host("h3_2")
        transport = OracleProbeTransport(truth, "h0_0")
        report = verify_expected_topology(transport, "h0_0", blueprint)
        assert "h3_2" in report.missing_hosts


def _hub_and_spokes():
    """S fans out to A, B, C; the origin host hangs off S."""
    topo = Topology()
    topo.add_switch("S", 10)
    for spoke in ("A", "B", "C"):
        topo.add_switch(spoke, 3)
    topo.add_link("A", 1, "S", 1)
    topo.add_link("B", 1, "S", 2)
    topo.add_link("C", 1, "S", 3)
    topo.add_host("H", "S", 10)
    return topo


class TestVerificationMisWire:
    """A crossed patch-panel wire that a one-directional bounce cannot
    see: the blueprint says A.2 <-> B.2, but A.2 actually lands on B.3
    and B.2 on C.2.  The forward bounce (out A.2, query, back via
    'B.2') still comes home -- through C -- carrying B's ID, so it
    verifies clean; only the reverse bounce (out B.2, expecting A's ID)
    exposes the mis-wire."""

    def _scenario(self):
        blueprint = _hub_and_spokes()
        blueprint.add_link("A", 2, "B", 2)
        truth = _hub_and_spokes()
        truth.add_link("A", 2, "B", 3)
        truth.add_link("B", 2, "C", 2)
        return truth, blueprint

    def test_crossed_cable_flagged(self):
        truth, blueprint = self._scenario()
        report = verify_expected_topology(OracleProbeTransport(truth, "H"), "H", blueprint)
        assert not report.clean
        assert ("A", 2, "B", 2) in report.missing_links

    def test_honest_links_still_verify(self):
        truth, blueprint = self._scenario()
        report = verify_expected_topology(OracleProbeTransport(truth, "H"), "H", blueprint)
        assert report.missing_links == [("A", 2, "B", 2)]
        assert report.missing_hosts == []
        assert report.confirmed_links == 3  # the three spoke uplinks

    def test_repair_recovers_the_real_wiring(self):
        truth, blueprint = self._scenario()
        transport = OracleProbeTransport(truth, "H")
        report = verify_expected_topology(transport, "H", blueprint)
        repaired = repair(transport, "H", blueprint, report)
        assert repaired.view.same_wiring(truth)


class _DropFirstAttempt:
    """Transport wrapper: the first attempt of selected specs vanishes
    (scenario (i) loss), retries go through untouched.  ``drop_specs``
    is anything supporting ``in``."""

    def __init__(self, inner, drop_specs):
        self.inner = inner
        self.max_ports = inner.max_ports
        self._drop = drop_specs
        self._seen = set()

    def probe_round(self, specs):
        outcomes = list(self.inner.probe_round(specs))
        for i, spec in enumerate(specs):
            if spec in self._drop and spec not in self._seen:
                self._seen.add(spec)
                outcomes[i] = None
        return outcomes

    @property
    def probes_sent(self):
        return self.inner.probes_sent

    @property
    def replies_received(self):
        return self.inner.replies_received

    def elapsed(self):
        return self.inner.elapsed()


def _host_probe_specs(topo, origin):
    """One guaranteed-answer host probe per non-origin host."""
    specs, expect = [], []
    for host in sorted(topo.hosts):
        if host == origin:
            continue
        ref = topo.host_port(host)
        to_s, from_s = route_tags(topo, origin, ref.switch)
        specs.append(ProbeSpec(tags=to_s + (ref.port,), reply_tags=from_s))
        expect.append(host)
    return specs, expect


class TestRetryingRoundAccounting:
    """Loss accounting of the shared retry loop: rounds, probes_retried,
    and in-place back-fill of recovered outcomes."""

    @given(drop=st.sets(st.integers(min_value=0, max_value=4)))
    @settings(max_examples=40, deadline=None)
    def test_losses_backfilled_and_counted(self, drop):
        topo = figure1()
        origin = sorted(topo.hosts)[0]
        specs, expect = _host_probe_specs(topo, origin)
        assert len(specs) == 5
        transport = _DropFirstAttempt(
            OracleProbeTransport(topo, origin), {specs[i] for i in drop}
        )
        stats = DiscoveryStats()
        outcomes = _retrying_round(transport, stats, specs, probe_retries=2)
        # Every outcome recovered on the retry, in its original slot.
        assert [o.host for o in outcomes] == expect
        # One retry round iff something was lost; one retried probe per
        # dropped spec.
        assert stats.rounds == (2 if drop else 1)
        assert stats.probes_retried == len(drop)

    @given(drop=st.sets(st.integers(min_value=0, max_value=4), min_size=1))
    @settings(max_examples=20, deadline=None)
    def test_zero_retries_leaves_losses_unanswered(self, drop):
        topo = figure1()
        origin = sorted(topo.hosts)[0]
        specs, expect = _host_probe_specs(topo, origin)
        transport = _DropFirstAttempt(
            OracleProbeTransport(topo, origin), {specs[i] for i in drop}
        )
        stats = DiscoveryStats()
        outcomes = _retrying_round(transport, stats, specs, probe_retries=0)
        for i, outcome in enumerate(outcomes):
            if i in drop:
                assert outcome is None
            else:
                assert outcome.host == expect[i]
        assert stats.rounds == 1
        assert stats.probes_retried == 0

    def test_genuinely_empty_port_costs_every_retry(self):
        topo = Topology()
        topo.add_switch("S", 4)
        topo.add_host("O", "S", 1)
        topo.add_host("X", "S", 2)
        specs = [
            ProbeSpec(tags=(2,), reply_tags=(1,)),  # host X: answers
            ProbeSpec(tags=(3,), reply_tags=(1,)),  # empty port: never
        ]
        stats = DiscoveryStats()
        outcomes = _retrying_round(
            OracleProbeTransport(topo, "O"), stats, specs, probe_retries=2
        )
        assert outcomes[0] is not None and outcomes[0].host == "X"
        assert outcomes[1] is None
        # The empty port is indistinguishable from loss: it eats one
        # probe per retry round and the rounds run out, not converge.
        assert stats.rounds == 3
        assert stats.probes_retried == 2
