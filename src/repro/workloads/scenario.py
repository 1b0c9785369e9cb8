"""Scenario = topology x workload x TE mechanism x engine.

One entry point, :func:`run_scenario`, replaces the hand-rolled
topology+traffic setup every benchmark used to carry: build the
capacity graph, pick the TE mechanism's path policy by name (through
:mod:`repro.core.te`, so the fluid and packet levels agree on what a
name means), build the dataplane engine at the requested fidelity
(``fluid``, or ``hybrid`` zooming into ``roi`` -- all-packet is
``roi=RegionOfInterest.all()`` -- via :func:`repro.hybrid.build_engine`),
materialize the workload's deterministic
:class:`~repro.workloads.api.FlowProgram` from the pinned seed, replay
it, and reduce the outcome to a scorecard cell:

* **FCT p50/p99/mean** over logical requests (tag groups -- an incast
  round or a replicated write completes when its last flow does);
* **goodput** -- delivered bits over the program's makespan;
* **path-table pressure** -- how many distinct (src, dst, path)
  entries the run ends with, the host path-table footprint a TE
  mechanism costs on DumbNet;
* **reroutes** -- active-flow path migrations the mechanism performed.

:class:`ScorecardReport` collects cells across a (workload x TE x
engine) grid behind the one obs report protocol
(:class:`~repro.obs.report.ReportBase`), which is what
``benchmarks/bench_workloads.py`` writes to ``BENCH_workloads.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..core.te import TE_MECHANISMS, make_flow_policy
from ..flowsim.network import FlowNet
from ..hybrid.engine import build_engine
from ..obs.report import ReportBase
from .api import FlowProgram, ProgramResult, Workload, quantile, replay_program

__all__ = [
    "Scenario",
    "ScenarioRun",
    "ScorecardReport",
    "run_scenario",
    "TE_MECHANISMS",
]

ENGINES = ("fluid", "hybrid")


@dataclass
class Scenario:
    """A fully specified experiment: what runs where, under which TE.

    ``topology`` is a :class:`~repro.topology.graph.Topology` or a
    zero-argument factory (factories keep Scenario declarations cheap
    to build in grids).  Everything after the four positional axes is
    a keyword-only options tail.
    """

    workload: Workload
    te: str = "flowlet"
    engine: str = "fluid"
    topology: Any = None
    name: Optional[str] = None
    # -- keyword-only options tail ------------------------------------
    te_kwargs: Dict[str, Any] = field(default_factory=dict)
    link_bps: float = 10e9
    host_bps: float = 10e9
    switch_overrides: Optional[Mapping[str, float]] = None
    roi: Any = None
    rebalance_interval_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.name is None:
            self.name = f"{self.workload.name}/{self.te}/{self.engine}"

    def resolve_topology(self):
        topo = self.topology() if callable(self.topology) else self.topology
        if topo is None:
            raise ValueError("scenario needs a topology (or factory)")
        return topo


@dataclass
class ScenarioRun:
    """Everything one :func:`run_scenario` call produced."""

    scenario: Scenario
    program: FlowProgram
    result: ProgramResult
    sim: Any
    policy: Any

    # ------------------------------------------------------------------

    def path_table_pressure(self) -> Dict[str, int]:
        """Host path-table footprint at end of run.

        ``entries`` counts distinct (src, dst, switch path) bindings --
        what the hosts' path tables would hold; ``pairs`` the distinct
        (src, dst) pairs that moved traffic; ``max_paths_per_pair`` the
        widest fan a single pair used.  Rebalanced flows count their
        final path (the entry that remains live).
        """
        entries = set()
        per_pair: Dict[Tuple[str, str], set] = {}
        for flow in self.result.flows:
            if flow.switch_path is None:
                continue
            path = tuple(flow.switch_path)
            entries.add((flow.src, flow.dst, path))
            per_pair.setdefault((flow.src, flow.dst), set()).add(path)
        return {
            "entries": len(entries),
            "pairs": len(per_pair),
            "max_paths_per_pair": max(
                (len(paths) for paths in per_pair.values()), default=0
            ),
        }

    def cell(self) -> Dict[str, Any]:
        """This run reduced to one scorecard cell (plain JSON data)."""
        fcts = sorted(self.result.fcts)
        pressure = self.path_table_pressure()
        stalled = sum(1 for f in self.result.flows if not f.done)
        return {
            "workload": self.scenario.workload.name,
            "te": self.scenario.te,
            "engine": self.scenario.engine,
            "seed": self.scenario.seed,
            "requests": len(fcts),
            "flows": len(self.result.flows),
            "stalled_flows": stalled,
            "duration_s": self.result.duration_s,
            "fct_p50_s": quantile(fcts, 0.50),
            "fct_p99_s": quantile(fcts, 0.99),
            "fct_mean_s": sum(fcts) / len(fcts) if fcts else 0.0,
            "goodput_bps": self.result.goodput_bps,
            "path_table_entries": pressure["entries"],
            "path_table_pairs": pressure["pairs"],
            "max_paths_per_pair": pressure["max_paths_per_pair"],
            "reroutes": getattr(self.policy, "reroutes", 0),
            "subflows": getattr(self.policy, "subflows", 1),
        }


def run_scenario(
    scenario: Scenario,
    *,
    rng: Optional[random.Random] = None,
    on_stall: str = "raise",
) -> ScenarioRun:
    """Execute one scenario end to end; returns the :class:`ScenarioRun`.

    ``rng`` overrides the program's generator (default: a fresh
    ``random.Random(scenario.seed)``) -- the only randomness in a run,
    so a pinned seed pins the scorecard cell bit for bit.
    """
    topo = scenario.resolve_topology()
    net = FlowNet(
        topo,
        link_bps=scenario.link_bps,
        host_bps=scenario.host_bps,
        switch_overrides=scenario.switch_overrides,
    )
    policy = make_flow_policy(scenario.te, **scenario.te_kwargs)
    sim = build_engine(
        topo,
        scenario.engine,
        roi=scenario.roi,
        policy=policy,
        net=net,
        rebalance_interval_s=scenario.rebalance_interval_s,
    )
    rng = rng if rng is not None else random.Random(scenario.seed)
    program = scenario.workload.program(topo, rng=rng)
    result = replay_program(
        sim, program, subflows=getattr(policy, "subflows", 1), on_stall=on_stall
    )
    return ScenarioRun(
        scenario=scenario, program=program, result=result, sim=sim, policy=policy
    )


class ScorecardReport(ReportBase):
    """A (workload x TE x engine) grid of scenario cells.

    Speaks the one report protocol: ``as_dict()`` nests cells under
    ``cells[workload][te][engine]``; ``summary()`` renders the fluid
    slice as a compact FCT-p99 table (one row per workload, one column
    per TE mechanism).
    """

    __slots__ = ("cells", "meta")

    def __init__(self, meta: Optional[Dict[str, Any]] = None) -> None:
        self.cells: Dict[str, Dict[str, Dict[str, Dict[str, Any]]]] = {}
        self.meta = dict(meta or {})

    def add(self, cell: Dict[str, Any]) -> None:
        self.cells.setdefault(cell["workload"], {}).setdefault(
            cell["te"], {}
        )[cell["engine"]] = cell

    @property
    def workloads(self) -> List[str]:
        return list(self.cells)

    @property
    def mechanisms(self) -> List[str]:
        seen: Dict[str, None] = {}
        for by_te in self.cells.values():
            for te in by_te:
                seen.setdefault(te)
        return list(seen)

    def cell(self, workload: str, te: str, engine: str) -> Dict[str, Any]:
        return self.cells[workload][te][engine]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "workload-scorecard",
            "meta": self.meta,
            "workloads": self.workloads,
            "mechanisms": self.mechanisms,
            "cells": self.cells,
        }

    def summary(self) -> str:
        mechanisms = self.mechanisms
        lines = [
            "workload scorecard (fluid FCT p99, seconds):",
            "  " + " ".join(f"{te:>10s}" for te in ["workload"] + mechanisms),
        ]
        for workload, by_te in self.cells.items():
            row = [f"{workload:>10s}"]
            for te in mechanisms:
                cell = by_te.get(te, {}).get("fluid")
                row.append(f"{cell['fct_p99_s']:10.4f}" if cell else f"{'-':>10s}")
            lines.append("  " + " ".join(row))
        return "\n".join(lines)
