"""Figure 8(b): discovery time vs per-switch port count.

Paper setup: a cube topology with the topology and link count held
constant while the per-switch port count varies; discovery time
"roughly follows a quadratic trend", consistent with the O(N * P^2)
probe complexity of Section 4.1.

The paper uses an 8x8x8 cube; we run the same experiment on a 4x4x4
cube (the oracle transport walks every probe individually, and the
quadratic exponent is port-count behaviour, not switch-count
behaviour -- the N factor is Figure 8(a)'s axis).
"""

import pytest

from repro.analysis import render_table
from repro.core.discovery import OracleProbeTransport, discover
from repro.topology import cube

from _util import publish

DIMS = [4, 4, 4]
PORT_SWEEP = (8, 16, 24, 32, 48)


def run_sweep():
    rows = []
    for ports in PORT_SWEEP:
        topo = cube(DIMS, hosts_per_switch=1, num_ports=ports)
        origin = topo.hosts[0]
        transport = OracleProbeTransport(topo, origin)
        result = discover(transport, origin)
        assert result.view.same_wiring(topo)
        rows.append((ports, transport.probes_sent, result.stats.elapsed_s))
    return rows


def quadratic_exponent(rows):
    """Log-log slope of time vs ports between sweep endpoints."""
    import math

    (p0, _m0, t0), (p1, _m1, t1) = rows[0], rows[-1]
    return math.log(t1 / t0) / math.log(p1 / p0)


def render(rows):
    """The committed ``fig8b_discovery_ports.txt`` text for ``rows``."""
    text = render_table(
        ["Ports/switch", "Probe msgs", "Modeled time (s)"],
        [(p, m, f"{t:.3f}") for p, m, t in rows],
        title=(
            f"Figure 8(b): discovery vs port density on a {DIMS[0]}^3 cube "
            "(links held constant).\n"
            "Paper: time follows a quadratic trend in P."
        ),
    )
    exponent = quadratic_exponent(rows)
    return text + f"\n\nlog-log exponent across the sweep: {exponent:.2f} (paper: ~2)"


def test_fig8b_discovery_vs_ports(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    exponent = quadratic_exponent(rows)
    publish("fig8b_discovery_ports", render(rows))

    # The quadratic shape is the claim.
    assert 1.6 < exponent < 2.3
    # Time strictly increases with port count.
    times = [t for _p, _m, t in rows]
    assert times == sorted(times)
