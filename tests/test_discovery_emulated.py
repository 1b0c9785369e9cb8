"""Emulated discovery: packet-level probing must equal the oracle."""

import pytest

from repro.core.discovery import OracleProbeTransport, ProbeSpec, discover
from repro.core.fabric import DumbNetFabric
from repro.core.host_agent import EmulatedProbeTransport
from repro.topology import figure1, leaf_spine, line, paper_testbed, ring


@pytest.mark.parametrize(
    "topo_factory,controller",
    [
        (figure1, "C3"),
        (lambda: line(3), "hL1_0"),
        (lambda: ring(4), "hR0_0"),
        (lambda: leaf_spine(2, 2, 2, num_ports=12), "h0_0"),
    ],
)
def test_emulated_equals_oracle(topo_factory, controller):
    topo = topo_factory()
    oracle_view = discover(
        OracleProbeTransport(topo, controller), controller
    ).view
    fabric = DumbNetFabric(topo_factory(), controller_host=controller, seed=1)
    emulated = fabric.controller.run_discovery(fabric.network)
    assert emulated.view.same_wiring(oracle_view)
    assert emulated.view.same_wiring(topo)


def test_emulated_transport_counts_messages():
    fabric = DumbNetFabric(figure1(), controller_host="C3", seed=1)
    transport = EmulatedProbeTransport(fabric.controller, fabric.network)
    result = discover(transport, "C3")
    assert transport.probes_sent == result.stats.probes_sent
    assert transport.probes_sent > 100
    assert transport.replies_received < transport.probes_sent
    assert transport.elapsed() > 0


@pytest.mark.parametrize(
    "topo_factory, controller",
    [(paper_testbed, "h0_0"), (lambda: leaf_spine(2, 3, 2), "h0_0")],
)
def test_both_transports_count_messages_alike(topo_factory, controller):
    """A remote host's reply is one message on either transport: the
    oracle and the emulator send as many probes, receive as many replies
    and map the same wiring (Figure 8's probe counts mix the two)."""
    oracle = OracleProbeTransport(topo_factory(), controller)
    oracle_view = discover(oracle, controller).view
    fabric = DumbNetFabric(topo_factory(), controller_host=controller, seed=1)
    emulated = EmulatedProbeTransport(fabric.controller, fabric.network)
    emulated_view = discover(emulated, controller).view
    assert (oracle.probes_sent, oracle.replies_received) == (
        emulated.probes_sent,
        emulated.replies_received,
    )
    assert emulated_view.same_wiring(oracle_view)
    assert emulated_view.same_wiring(fabric.topology)


def test_emulated_probe_spacing_serializes_controller():
    """Probes leave at the agent's processing rate: discovery time grows
    with probe count (the Figure 8 bottleneck)."""
    small = DumbNetFabric(line(2, num_ports=6), controller_host="hL0_0", seed=1)
    small_result = small.controller.run_discovery(small.network)
    big = DumbNetFabric(line(4, num_ports=12), controller_host="hL0_0", seed=1)
    big_result = big.controller.run_discovery(big.network)
    assert big_result.stats.probes_sent > small_result.stats.probes_sent
    assert big_result.stats.elapsed_s > small_result.stats.elapsed_s


def test_probe_round_with_no_specs():
    fabric = DumbNetFabric(figure1(), controller_host="C3", seed=1)
    transport = EmulatedProbeTransport(fabric.controller, fabric.network)
    assert transport.probe_round([]) == []


def test_bounce_probe_without_query_recorded_as_bounce():
    """A plain port probe (no ID query) must come back as a bounce."""
    fabric = DumbNetFabric(figure1(), controller_host="C3", seed=1)
    agent = fabric.controller
    nonce = agent.send_probe(ProbeSpec(tags=(9,)))  # C3's own port
    fabric.run_until_idle()
    outcome = agent.collect_probe(nonce)
    assert outcome is not None and outcome.kind == "bounce"
