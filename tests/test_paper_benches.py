"""Fast paper benches re-derived in memory against their committed results.

Fig 12 walks a 1 000-switch cube with primaries up to 15 hops and ε up
to 4, and the path-graph ablation builds path graphs on a sparse
jellyfish and replays 300 correlated failures: path lengths, detour
budgets and tie patterns the small hypothesis topologies never reach.
Fig 7 is the FPGA resource model, Fig 8(b) oracle discovery on a 4^3
cube at five port densities (exact probe counts), and Fig 9 the host
stack model plus one fluid leaf-to-leaf run.  Each test re-runs its
bench's grid, renders it exactly as the bench publishes it and compares
the text with ``benchmarks/results/``; no file is written.
"""

import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
sys.path.insert(0, BENCH_DIR)

import bench_ablation_pathgraph  # noqa: E402
import bench_fig7_fpga_resources  # noqa: E402
import bench_fig8b_discovery_ports  # noqa: E402
import bench_fig9_throughput  # noqa: E402
import bench_fig12_pathgraph_size  # noqa: E402

pytestmark = pytest.mark.paper


def committed(name):
    with open(os.path.join(BENCH_DIR, "results", f"{name}.txt")) as handle:
        return handle.read()


def test_fig12_grid_reproduces_the_committed_table():
    grid = bench_fig12_pathgraph_size.run_grid()
    assert bench_fig12_pathgraph_size.render(grid) + "\n" == committed("fig12_pathgraph_size")


def test_ablation_pathgraph_reproduces_the_committed_table():
    stats = bench_ablation_pathgraph.run_ablation()
    assert bench_ablation_pathgraph.render(stats) + "\n" == committed("ablation_pathgraph")


def test_fig7_sweep_reproduces_the_committed_table():
    rows = bench_fig7_fpga_resources.sweep()
    assert bench_fig7_fpga_resources.render(rows) + "\n" == committed("fig7_fpga_resources")


def test_fig8b_sweep_reproduces_the_committed_table():
    rows = bench_fig8b_discovery_ports.run_sweep()
    assert bench_fig8b_discovery_ports.render(rows) + "\n" == committed("fig8b_discovery_ports")


def test_fig9_run_reproduces_the_committed_table():
    aggregate_bps = bench_fig9_throughput.aggregate_leaf_throughput()
    assert bench_fig9_throughput.render(aggregate_bps) + "\n" == committed("fig9_throughput")
