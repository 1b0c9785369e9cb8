"""Figure 9 + the aggregate-throughput experiment of Section 7.2.2.

Paper numbers:

* single host: no-op DPDK 5.41 Gbps, "MPLS only" 5.19 Gbps, DumbNet
  5.19 Gbps (source routing adds only negligible overhead);
* aggregate: two leaf switches with 14 hosts each, 2x10 GE uplinks:
  "the measured aggregated throughput reaches 18.5 Gbps" out of 20 --
  wire speed through the MPLS dataplane with both paths utilized.

The single-host numbers come from the calibrated host-stack cost model
(DESIGN.md substitution: a Python per-packet dataplane cannot be timed
meaningfully); the aggregate number runs the fluid simulator over the
testbed topology with DumbNet's k-path load balancing.
"""

import os
import sys

if __name__ == "__main__":  # standalone CLI: repo src + sibling _util
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    sys.path.insert(0, os.path.dirname(__file__))

import pytest

from repro.analysis import render_table
from repro.hardware import DUMBNET, MPLS_ONLY, NOOP_DPDK
from repro.topology import leaf_spine
from repro.workloads import FixedPairs, Scenario, run_scenario

from _util import publish


def single_host_rows():
    return [
        ("No-op DPDK", 5.41, NOOP_DPDK.throughput_bps() / 1e9),
        ("MPLS Only", 5.19, MPLS_ONLY.throughput_bps() / 1e9),
        ("DumbNet", 5.19, DUMBNET.throughput_bps() / 1e9),
    ]


def aggregate_leaf_throughput(engine="fluid", roi=None):
    """14 hosts per leaf, 2 spines, 10 GE everywhere; all hosts on
    leaf0 blast a peer on leaf1.  Uplink capacity caps the total at
    20 Gbps; per-host stacks cap each sender at the DumbNet rate.

    One :func:`repro.workloads.run_scenario` call: the fixed-pair
    matrix under flowlet TE (k=2, the testbed's two uplinks) at the
    requested fidelity.  ``goodput_bps`` is exactly the old
    ``total_bits / completion_time`` headline.
    """
    scenario = Scenario(
        FixedPairs(
            [(f"h0_{i}", f"h1_{i}") for i in range(14)],
            size_bits=1e9,
            tag="agg",
        ),
        te="flowlet",
        engine=engine,
        topology=lambda: leaf_spine(
            spines=2, leaves=2, hosts_per_leaf=14, num_ports=64
        ),
        te_kwargs={"k": 2},
        link_bps=10e9,
        host_bps=DUMBNET.throughput_bps(),
        roi=roi,
    )
    return run_scenario(scenario).result.goodput_bps


def render(aggregate_bps):
    """The committed ``fig9_throughput.txt`` text for ``aggregate_bps``."""
    rows = [
        (name, f"{paper:.2f}", f"{ours:.2f}")
        for name, paper, ours in single_host_rows()
    ]
    text = render_table(
        ["Stack", "Paper (Gbps)", "Model (Gbps)"],
        rows,
        title="Figure 9: single-host throughput",
    )
    return text + (
        "\n\nAggregate leaf-to-leaf throughput (14 hosts/leaf, 2x10GE "
        f"uplinks):\n  paper 18.5 / 20 Gbps, measured {aggregate_bps / 1e9:.1f} Gbps"
    )


def test_fig9_throughput(benchmark):
    aggregate_bps = benchmark.pedantic(
        aggregate_leaf_throughput, rounds=1, iterations=1
    )
    publish("fig9_throughput", render(aggregate_bps))

    ours = {name: measured for name, _p, measured in single_host_rows()}
    # Exact calibration on the anchor; structural equalities elsewhere.
    assert ours["No-op DPDK"] == pytest.approx(5.41, abs=0.01)
    assert ours["MPLS Only"] == pytest.approx(5.19, abs=0.02)
    assert ours["DumbNet"] == pytest.approx(ours["MPLS Only"], rel=0.01)
    # Aggregate: both uplinks utilized -> well above one uplink's 10G,
    # close to the 20G ceiling (paper: 18.5).
    assert 16e9 < aggregate_bps <= 20e9


def main(argv=None) -> int:
    import argparse
    import time

    from repro.hybrid import RegionOfInterest

    parser = argparse.ArgumentParser(
        description="Figure 9 aggregate leaf-to-leaf throughput"
    )
    parser.add_argument(
        "--engine", choices=("fluid", "hybrid"), default="fluid",
        help="dataplane fidelity",
    )
    parser.add_argument(
        "--roi-host", action="append", default=None, metavar="HOST",
        help="hybrid: promote flows touching HOST (repeatable; "
        "default h1_0)",
    )
    opts = parser.parse_args(argv)
    roi = None
    if opts.engine == "hybrid":
        roi = RegionOfInterest.of_hosts(*(opts.roi_host or ["h1_0"]))
    t0 = time.perf_counter()
    aggregate_bps = aggregate_leaf_throughput(opts.engine, roi)
    wall = time.perf_counter() - t0
    print(
        f"[{opts.engine}] aggregate {aggregate_bps / 1e9:.2f} Gbps "
        f"(paper 18.5 / 20), wall {wall:.2f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
