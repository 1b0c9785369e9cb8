"""Figure 8(a): topology discovery time vs network size.

Paper series: fat-tree and cube topologies (controller at the cube's
corner or center), 64-port switches, up to ~500 switches; discovery
finishes within ~70 s at 500 switches, time grows linearly with switch
count, and topology/controller placement are secondary effects.

The discovery algorithm runs unmodified over the oracle transport,
which counts every probing message exactly and charges the calibrated
per-message controller cost (Section "Substitutions" in DESIGN.md).
The testbed point ("3~5 seconds for 7 switches / 27 hosts" in Section
7.2.1, run packet-by-packet in the emulator) is reported alongside.
"""

import pytest

from repro.analysis import render_table
from repro.core.discovery import OracleProbeTransport, discover
from repro.core.fabric import DumbNetFabric
from repro.topology import (
    center_switch,
    corner_switch,
    cube,
    fat_tree,
    paper_testbed,
)

from _util import publish

#: 64 ports everywhere, like the paper's sweep.
PORTS = 64

#: (label, builder) -> builder(n) returns (topology, origin host).
def build_fat_tree(target):
    k = 2
    while 5 * k * k // 4 < target:
        k += 2
    topo = fat_tree(k, hosts_per_edge=1, num_ports=PORTS)
    return topo, topo.hosts[0]


def build_cube(target, placement):
    side = 2
    while side ** 3 < target:
        side += 1
    dims = [side, side, side]
    topo = cube(dims, hosts_per_switch=1, num_ports=PORTS)
    anchor = corner_switch(dims) if placement == "corner" else center_switch(dims)
    origin = topo.hosts_on(anchor)[0]
    return topo, origin


SERIES = {
    "FatTree": lambda n: build_fat_tree(n),
    "Cube-corner": lambda n: build_cube(n, "corner"),
    "Cube-center": lambda n: build_cube(n, "center"),
}

SIZES = (20, 45, 80, 125, 180)


def collect_series():
    rows = []
    for label, builder in SERIES.items():
        seen = set()
        for size in SIZES:
            topo, origin = builder(size)
            if len(topo.switches) in seen:
                continue  # two targets snapped to the same instance
            seen.add(len(topo.switches))
            transport = OracleProbeTransport(topo, origin)
            result = discover(transport, origin)
            assert result.view.same_wiring(topo)
            rows.append(
                (label, len(topo.switches), result.stats.probes_sent,
                 result.stats.elapsed_s)
            )
    return rows


def test_fig8a_discovery_scale(benchmark):
    rows = benchmark.pedantic(collect_series, rounds=1, iterations=1)

    # The emulated testbed point, packet by packet.
    import time as _time

    fabric = DumbNetFabric(paper_testbed(), controller_host="h0_0", seed=1)
    wall_start = _time.perf_counter()
    result = fabric.bootstrap()
    wall = _time.perf_counter() - wall_start
    testbed_time = result.stats.elapsed_s

    table_rows = [
        (label, n, probes, f"{seconds:.2f}")
        for label, n, probes, seconds in rows
    ]
    table_rows.append(
        ("Testbed (emulated)", 7, result.stats.probes_sent, f"{testbed_time:.3f}")
    )
    text = render_table(
        ["Series", "Switches", "Probe msgs", "Modeled time (s)"],
        table_rows,
        title=(
            "Figure 8(a): discovery time vs #switches (64-port switches).\n"
            "Paper: <= 70 s at 500 switches, linear in N, placement secondary.\n"
            "Linear fit projects the paper-scale point below."
        ),
    )

    # Linear projection to the paper's 500-switch point per series.
    projections = []
    for label in SERIES:
        pts = [(n, t) for l, n, _p, t in rows if l == label]
        n_mean = sum(n for n, _t in pts) / len(pts)
        t_mean = sum(t for _n, t in pts) / len(pts)
        slope = sum((n - n_mean) * (t - t_mean) for n, t in pts) / sum(
            (n - n_mean) ** 2 for n, _t in pts
        )
        intercept = t_mean - slope * n_mean
        projections.append((label, f"{slope * 500 + intercept:.1f}"))
    text += "\n\n" + render_table(
        ["Series", "Projected time at 500 switches (s)"],
        projections,
        title="Projection (paper reports <= ~70 s)",
    )
    # Emulator throughput for the packet-by-packet point (the scale
    # sweep uses the oracle transport, which runs no events); the
    # e2e `bootstrap_discovery` workload times this loop end to end.
    text += (
        f"\n\nEmulated testbed point: {fabric.loop.events_run} events "
        f"in {wall:.2f}s wall ({fabric.loop.events_run / wall:,.0f} events/s)"
    )
    publish("fig8a_discovery_scale", text)

    # Shape checks: linearity in N (probes scale ~ with switches).
    for label in SERIES:
        pts = sorted((n, p) for l, n, p, _t in rows if l == label)
        (n0, p0), (n1, p1) = pts[0], pts[-1]
        ratio = (p1 / p0) / (n1 / n0)
        assert 0.5 < ratio < 2.0, f"{label}: probes not ~linear in N"
    # Placement is secondary: corner vs center within 25%.
    corner = {n: t for l, n, _p, t in rows if l == "Cube-corner"}
    center = {n: t for l, n, _p, t in rows if l == "Cube-center"}
    for n in corner:
        if n in center:
            assert abs(corner[n] - center[n]) / max(corner[n], center[n]) < 0.25
    # Testbed magnitude: single-digit seconds (paper: 3-5 s).
    assert 0.05 < testbed_time < 10
