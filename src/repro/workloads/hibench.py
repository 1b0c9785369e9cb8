"""HiBench-analogue big-data workloads (Section 7.4, Figure 13).

The paper runs five Intel HiBench tasks -- Aggregation, Join, Pagerank,
Terasort, Wordcount -- "to capture the flow dependencies in real-world
applications".  We model each task the way flow-level studies model
MapReduce/Spark jobs: a sequence of stages, each stage a set of shuffle
flows between the worker hosts, where a stage starts only when the
previous one finishes.  The shapes follow the actual HiBench kernels:

* **Aggregation**: one heavy map->reduce shuffle (GROUP BY).
* **Join**: two table shuffles in one stage (co-partitioned join), then
  a smaller result shuffle.
* **Pagerank**: several iterations of moderate all-to-all shuffles.
* **Terasort**: one very heavy all-to-all range-partition shuffle plus
  an output write stage.
* **Wordcount**: map-side combiners shrink the data, so a long map
  stage (host-local, modeled as NIC-bounded local flows) and a light
  shuffle.

Flow sizes are randomized around per-task means (with a deterministic
seed) so skew exists but shapes dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .api import FlowProgram, FlowSpec, Phase, Workload

__all__ = [
    "Stage",
    "TaskSpec",
    "HiBenchWorkload",
    "legacy_task_rng",
    "task_program",
    "HIBENCH_TASKS",
]

HIBENCH_TASKS = ("Aggregation", "Join", "Pagerank", "Terasort", "Wordcount")

#: Base unit of shuffle volume, bits (250 MB).  Scaled per task below.
_UNIT_BITS = 250e6 * 8


@dataclass(frozen=True)
class Stage:
    """One synchronized stage: flows that must all finish to proceed."""

    name: str
    flows: Tuple[Tuple[str, str, float], ...]  # (src, dst, bits)


@dataclass(frozen=True)
class TaskSpec:
    name: str
    stages: Tuple[Stage, ...]

    @property
    def total_bits(self) -> float:
        return sum(bits for stage in self.stages for _s, _d, bits in stage.flows)


def _shuffle_flows(
    sources: Sequence[str],
    sinks: Sequence[str],
    total_bits: float,
    rng: random.Random,
    skew: float = 0.3,
) -> Tuple[Tuple[str, str, float], ...]:
    """All-to-all flows moving ``total_bits`` with multiplicative skew."""
    flows: List[Tuple[str, str, float]] = []
    pairs = [(s, d) for s in sources for d in sinks if s != d]
    if not pairs:
        return ()
    base = total_bits / len(pairs)
    for src, dst in pairs:
        size = base * rng.uniform(1 - skew, 1 + skew)
        flows.append((src, dst, size))
    return tuple(flows)


def legacy_task_rng(seed: int, name: str) -> random.Random:
    """The task rng the committed Figure 13 DAGs were drawn from.

    Seeded from the string ``"<seed>:<name>"``, which ``random.Random``
    digests the same way in every process (a ``hash()`` of it would be
    salted per process unless ``PYTHONHASHSEED`` is pinned).  Callers
    that must reproduce those DAGs byte for byte pass
    ``rng=legacy_task_rng(seed, name)`` to the Workload path.
    """
    return random.Random(f"{seed}:{name}")


def _build_task(
    name: str,
    hosts: Sequence[str],
    rng: random.Random,
    scale: float,
) -> TaskSpec:
    """The DAG builder proper: all randomness from the caller's rng."""
    if name not in HIBENCH_TASKS:
        raise ValueError(f"unknown HiBench task {name!r}; pick from {HIBENCH_TASKS}")
    if len(hosts) < 2:
        raise ValueError("need at least two worker hosts")
    unit = _UNIT_BITS * scale
    half = max(1, len(hosts) // 2)
    mappers = list(hosts)
    reducers = list(hosts)

    if name == "Aggregation":
        stages = (
            Stage("shuffle", _shuffle_flows(mappers, reducers, 10 * unit, rng)),
            Stage("output", _shuffle_flows(reducers[:half], reducers[half:], 1 * unit, rng)),
        )
    elif name == "Join":
        table_a = _shuffle_flows(mappers, reducers, 7 * unit, rng)
        table_b = _shuffle_flows(mappers, reducers, 5 * unit, rng)
        stages = (
            Stage("shuffle-both-tables", tuple(table_a + table_b)),
            Stage("result", _shuffle_flows(reducers, reducers, 2 * unit, rng)),
        )
    elif name == "Pagerank":
        iterations = 3
        stages = tuple(
            Stage(f"iteration-{i}", _shuffle_flows(hosts, hosts, 4 * unit, rng))
            for i in range(iterations)
        )
    elif name == "Terasort":
        stages = (
            Stage("sort-shuffle", _shuffle_flows(mappers, reducers, 16 * unit, rng)),
            Stage("output-replication", _shuffle_flows(reducers, mappers, 4 * unit, rng)),
        )
    else:  # Wordcount
        stages = (
            Stage("combine", _shuffle_flows(mappers[:half], mappers[half:], 2 * unit, rng)),
            Stage("reduce", _shuffle_flows(mappers, reducers, 3 * unit, rng)),
        )
    return TaskSpec(name=name, stages=stages)


def task_program(task: TaskSpec) -> FlowProgram:
    """A :class:`TaskSpec` as a unified :class:`FlowProgram`: one phase
    per stage, every stage flow tagged ``(task, stage)``."""
    return FlowProgram(
        phases=tuple(
            Phase(
                stage.name,
                tuple(
                    FlowSpec(0.0, src, dst, bits, tag=(task.name, stage.name))
                    for src, dst, bits in stage.flows
                ),
            )
            for stage in task.stages
        )
    )


class HiBenchWorkload(Workload):
    """One HiBench task DAG behind the :class:`Workload` protocol.

    ``program`` builds the task's stages from the caller's rng (no
    embedded seed) over the topology's hosts and returns the staged
    :class:`FlowProgram`; phases are MapReduce barriers.
    """

    def __init__(
        self,
        task: str,
        *,
        scale: float = 1.0,
        hosts: Optional[Sequence[str]] = None,
    ) -> None:
        if task not in HIBENCH_TASKS:
            raise ValueError(
                f"unknown HiBench task {task!r}; pick from {HIBENCH_TASKS}"
            )
        self.name = f"hibench-{task.lower()}"
        self.task = task
        self.scale = scale
        self.hosts = hosts

    def program(self, topology, *, rng: random.Random) -> FlowProgram:
        hosts = list(self.hosts) if self.hosts is not None else list(topology.hosts)
        return task_program(_build_task(self.task, hosts, rng, self.scale))

    def describe(self) -> Dict[str, object]:
        return {"name": self.name, "task": self.task, "scale": self.scale}

