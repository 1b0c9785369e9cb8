"""Workload generators behind one protocol, plus the legacy drivers.

The unified surface (PR 9): :class:`Workload` specs materialize
deterministic :class:`FlowProgram` streams from a caller-seeded rng;
:func:`run_scenario` executes a :class:`Scenario` (topology x workload
x TE mechanism x engine) and reduces it to a scorecard cell;
:class:`ScorecardReport` collects the grid.
"""

from .api import (
    FlowProgram,
    FlowSpec,
    Phase,
    ProgramResult,
    StalledProgramError,
    Workload,
    quantile,
    replay_program,
)
from .iperf import CbrStream, RttSample, measure_rtts
from .hibench import (
    HIBENCH_TASKS,
    HiBenchWorkload,
    Stage,
    TaskSpec,
    hibench_task,
    legacy_task_rng,
    task_program,
)
from .incast import (
    IncastSpec,
    drive_incast_packets,
    incast_flows,
)
from .scenario import (
    ENGINES,
    Scenario,
    ScenarioRun,
    ScorecardReport,
    TE_MECHANISMS,
    run_scenario,
)
from .suite import (
    CbrPairs,
    ElephantMice,
    FixedPairs,
    IncastSweep,
    StorageReplication,
    TenantChurn,
    TraceReplay,
    canonical_suite,
)
from .traces import (
    DATA_MINING_CDF,
    WEB_SEARCH_CDF,
    mean_flow_bits,
    sample_flow_bits,
)
from .storm import StormEvent, path_query_storm
from .traffic import (
    all_to_all_pairs,
    hotspot_pairs,
    pareto_flow_bits,
    permutation_pairs,
    poisson_arrivals,
    stride_pairs,
)

__all__ = [
    # unified API
    "Workload",
    "FlowSpec",
    "Phase",
    "FlowProgram",
    "ProgramResult",
    "StalledProgramError",
    "replay_program",
    "quantile",
    # scenarios
    "Scenario",
    "ScenarioRun",
    "ScorecardReport",
    "run_scenario",
    "ENGINES",
    "TE_MECHANISMS",
    # canonical suite
    "TraceReplay",
    "IncastSweep",
    "ElephantMice",
    "StorageReplication",
    "TenantChurn",
    "FixedPairs",
    "CbrPairs",
    "canonical_suite",
    # hibench
    "HiBenchWorkload",
    "hibench_task",
    "task_program",
    "legacy_task_rng",
    "TaskSpec",
    "Stage",
    "HIBENCH_TASKS",
    # matrices / distributions
    "permutation_pairs",
    "all_to_all_pairs",
    "stride_pairs",
    "hotspot_pairs",
    "pareto_flow_bits",
    "poisson_arrivals",
    # packet-level drivers
    "CbrStream",
    "measure_rtts",
    "RttSample",
    "StormEvent",
    "path_query_storm",
    # incast
    "IncastSpec",
    "incast_flows",
    "drive_incast_packets",
    # traces
    "WEB_SEARCH_CDF",
    "DATA_MINING_CDF",
    "sample_flow_bits",
    "mean_flow_bits",
]
