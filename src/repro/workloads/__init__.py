"""Workload generators behind one protocol, plus the legacy drivers.

The unified surface (PR 9): :class:`Workload` specs materialize
deterministic :class:`FlowProgram` streams from a caller-seeded rng;
:func:`run_scenario` executes a :class:`Scenario` (topology x workload
x TE mechanism x engine) and reduces it to a scorecard cell;
:class:`ScorecardReport` collects the grid.
"""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    # unified API
    ".api": (
        "Workload",
        "FlowSpec",
        "Phase",
        "FlowProgram",
        "ProgramResult",
        "StalledProgramError",
        "replay_program",
        "quantile",
    ),
    # scenarios
    ".scenario": (
        "Scenario",
        "ScenarioRun",
        "ScorecardReport",
        "run_scenario",
        "ENGINES",
        "TE_MECHANISMS",
    ),
    # canonical suite
    ".suite": (
        "TraceReplay",
        "IncastSweep",
        "ElephantMice",
        "StorageReplication",
        "TenantChurn",
        "FixedPairs",
        "canonical_suite",
    ),
    ".hibench": (
        "HiBenchWorkload",
        "task_program",
        "legacy_task_rng",
        "TaskSpec",
        "Stage",
        "HIBENCH_TASKS",
    ),
    # matrices / distributions
    ".traffic": ("pareto_flow_bits", "poisson_arrivals"),
    # packet-level drivers
    ".iperf": ("CbrStream", "measure_rtts", "RttSample"),
    ".storm": ("StormEvent", "path_query_storm"),
    ".traces": ("WEB_SEARCH_CDF", "DATA_MINING_CDF", "sample_flow_bits", "mean_flow_bits"),
})
