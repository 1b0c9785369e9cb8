"""Topology validation and structural analysis.

Operators validating a blueprint before bootstrap (Section 4.1's
verification mode needs something to verify *against*) want structural
sanity checks and capacity figures: port budget audits, diameter,
bisection bandwidth, redundancy.  The DumbNet path-tag format also
imposes hard limits (ports 1..254, path length bounded by the MTU
headroom) that a fabric must respect before deployment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.packet import DUMBNET_MTU, MAX_PORT_TAG
from .graph import Topology

__all__ = [
    "ValidationReport",
    "validate_for_dumbnet",
    "diameter",
]


@dataclass
class ValidationReport:
    """Findings from :func:`validate_for_dumbnet`."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        lines = []
        for error in self.errors:
            lines.append(f"ERROR   {error}")
        for warning in self.warnings:
            lines.append(f"WARNING {warning}")
        return "\n".join(lines) if lines else "ok"


def validate_for_dumbnet(
    topology: Topology,
    max_path_tags: int = 32,
) -> ValidationReport:
    """Check a fabric against DumbNet's dataplane constraints.

    Errors: port numbers beyond the tag range, disconnected switch
    graphs, hosts that cannot reach each other, diameters whose tag
    sequences would not fit the header headroom.  Warnings: switches
    with no hosts and no redundancy, single points of failure.
    """
    report = ValidationReport()
    for switch in topology.switches:
        if topology.num_ports(switch) > MAX_PORT_TAG:
            report.errors.append(
                f"switch {switch!r} has {topology.num_ports(switch)} ports; "
                f"tags only address 1..{MAX_PORT_TAG}"
            )
    if not topology.switches:
        report.errors.append("no switches")
        return report
    if not topology.is_connected():
        report.errors.append("switch graph is disconnected")
        return report

    dia = diameter(topology)
    # Host-to-host tag count = switch hops + 1 (final host port).
    if dia + 1 > max_path_tags:
        report.errors.append(
            f"diameter {dia} needs {dia + 1} tags, budget is {max_path_tags}"
        )
    elif dia + 1 > max_path_tags // 2:
        report.warnings.append(
            f"diameter {dia} uses more than half the tag budget"
        )

    # Redundancy: bridges (single links whose loss partitions switches).
    bridges = _bridge_links(topology)
    for link in bridges:
        report.warnings.append(f"link {link} is a single point of failure")

    for switch in topology.switches:
        if not topology.hosts_on(switch) and topology.degree(switch) == 1:
            report.warnings.append(
                f"switch {switch!r} is a host-less leaf (dead end)"
            )
    return report


def diameter(topology: Topology) -> int:
    """Longest shortest switch path, in hops."""
    best = 0
    for switch in topology.switches:
        dist = topology.switch_distances(switch)
        if len(dist) != len(topology.switches):
            raise ValueError("diameter of a disconnected topology")
        best = max(best, max(dist.values()))
    return best


def _bridge_links(topology: Topology) -> List[str]:
    """Bridge edges of the switch graph (naive but dependable)."""
    bridges = []
    for link in topology.links:
        scratch = topology.copy()
        scratch.remove_link(
            link.a.switch, link.a.port, link.b.switch, link.b.port
        )
        if not scratch.is_connected():
            bridges.append(str(link))
    return bridges
