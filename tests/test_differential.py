"""Differential testing: the oracle walk vs the emulated dataplane.

The oracle transport (used for Figure 8's large-scale discovery) claims
to implement *exactly* the dumb switch's semantics.  These tests hold it
to that: random tag sequences are injected as real packets through the
emulated fabric AND walked by the oracle, and the outcomes must agree
packet for packet -- delivered to the same host, bounced with the same
ID, or dropped.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_connected
from repro.core.discovery import OracleProbeTransport, ProbeSpec
from repro.core.fabric import DumbNetFabric


def oracle_outcome(topo, origin, tags):
    transport = OracleProbeTransport(topo, origin)
    return transport._follow_tags(origin, tags)


class TestDifferentialTagWalks:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=2, max_value=6),    # switches
        st.integers(min_value=0, max_value=5),    # extra links
        st.integers(min_value=0, max_value=5000), # topo seed
        st.lists(
            st.integers(min_value=0, max_value=12),
            min_size=1,
            max_size=8,
        ),
    )
    def test_bounce_agreement(self, n, extra, seed, tags):
        """For any tag list, 'did it bounce back to the sender (and
        with which switch ID)' must agree between oracle and emulator."""
        topo = random_connected(
            n, extra_links=extra, hosts_per_switch=1, num_ports=12, seed=seed
        )
        origin = topo.hosts[0]
        walked = oracle_outcome(topo, origin, tags)
        oracle_bounced = walked is not None and walked[0] == origin
        oracle_id = walked[1] if walked is not None else None

        fabric = DumbNetFabric(topo.copy(), controller_host=origin, seed=seed)
        agent = fabric.agents[origin]
        nonce = agent.send_probe(ProbeSpec(tags=tuple(tags)))
        fabric.run_until_idle()
        outcome = agent.collect_probe(nonce)

        if oracle_bounced and oracle_id is not None:
            assert outcome is not None and outcome.kind == "id"
            assert outcome.switch_id == oracle_id
        elif oracle_bounced:
            assert outcome is not None and outcome.kind == "bounce"
        else:
            assert outcome is None

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5000),
        st.lists(
            st.integers(min_value=0, max_value=12), min_size=1, max_size=8
        ),
    )
    def test_foreign_delivery_agreement(self, n, extra, seed, tags):
        """If the oracle says another host receives the packet, the
        emulated fabric must deliver it there (observed via the host's
        receive counter for probe payloads)."""
        topo = random_connected(
            n, extra_links=extra, hosts_per_switch=1, num_ports=12, seed=seed
        )
        origin = topo.hosts[0]
        walked = oracle_outcome(topo, origin, tags)
        if walked is None or walked[0] == origin:
            return  # covered by the bounce test
        target = walked[0]

        fabric = DumbNetFabric(topo.copy(), controller_host=origin, seed=seed)
        before = fabric.agents[target].packets_received
        fabric.agents[origin].send_probe(ProbeSpec(tags=tuple(tags)))
        fabric.run_until_idle()
        assert fabric.agents[target].packets_received > before
