"""The unified workload API: named spec -> deterministic flow stream.

Before this module the repo had five inconsistent module-level
conventions for "some traffic": ``IncastSpec`` + ``run_incast_fluid``,
``hibench_task`` + ``run_task``, bare pair-generator lists,
``CbrStream`` (packet-level, self-installing), and
``TraceWorkload.flows()`` rows.  Each invented its own shape, its own
seeding, and its own runner.  This module gives them one contract:

* a :class:`Workload` is a *named spec*.  Calling
  :meth:`Workload.program` with a topology and an explicit
  ``random.Random`` produces a :class:`FlowProgram` -- a deterministic,
  fully materialized stream of flow arrivals.  Same spec + same seed =
  byte-identical program, on any process (no hidden
  ``random.Random(0)`` defaults, no hash-salted seeds).
* a :class:`FlowProgram` is a sequence of :class:`Phase` barriers, each
  a tuple of :class:`FlowSpec` rows with phase-relative start times.
  Open-loop workloads are a single phase; staged DAGs (the HiBench
  shapes) are one phase per stage.
* :func:`replay_program` runs a program on any flow dataplane
  (:class:`~repro.flowsim.FluidSimulator` or its hybrid/packet
  subclasses) with MapReduce barrier semantics, and returns per-group
  flow-completion times ready for scorecard percentiles.

The scenario layer (:mod:`repro.workloads.scenario`) composes a
Workload with a topology, a TE policy and an engine; this module knows
nothing about either.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "FlowSpec",
    "Phase",
    "FlowProgram",
    "Workload",
    "ProgramResult",
    "StalledProgramError",
    "replay_program",
    "quantile",
]


@dataclass(frozen=True)
class FlowSpec:
    """One flow arrival: who sends how much to whom, when.

    ``start_s`` is relative to the release time of the enclosing
    :class:`Phase`.  ``tag`` groups flows into one logical request
    (an incast round, a replicated write, an RPC): flow-completion
    statistics are computed per tag, so a request "completes" when its
    last flow does.  ``demand_bps`` caps the flow's rate (CBR-style
    traffic); the default is unbounded.
    """

    start_s: float
    src: str
    dst: str
    size_bits: float
    tag: Hashable = None
    demand_bps: float = math.inf


@dataclass(frozen=True)
class Phase:
    """A barrier stage: every flow must finish before the next phase."""

    name: str
    flows: Tuple[FlowSpec, ...]


@dataclass(frozen=True)
class FlowProgram:
    """A materialized, deterministic flow stream."""

    phases: Tuple[Phase, ...]

    @classmethod
    def open_loop(cls, flows: Sequence[FlowSpec], name: str = "open-loop") -> "FlowProgram":
        """The common single-phase case: one unsynchronized stream."""
        return cls(phases=(Phase(name, tuple(flows)),))

    @property
    def total_bits(self) -> float:
        return sum(f.size_bits for p in self.phases for f in p.flows)

    def tags(self) -> List[Hashable]:
        """Distinct tags in first-appearance order."""
        seen: Dict[Hashable, None] = {}
        for phase in self.phases:
            for flow in phase.flows:
                seen.setdefault(flow.tag)
        return list(seen)


class Workload:
    """A named, parameterized traffic spec.

    Subclasses set :attr:`name` (the workload-family label that keys
    scorecard rows) and implement :meth:`program`.  The contract:

    * ``program`` takes the topology (host names come from it) and a
      caller-seeded ``random.Random`` -- all randomness flows through
      that one generator, so a pinned seed pins the whole program;
    * the returned :class:`FlowProgram` is fully materialized: no lazy
      state survives into the replay.
    """

    name: str = "workload"

    def program(self, topology, *, rng: random.Random) -> FlowProgram:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """Scorecard-facing spec summary (overridable)."""
        return {"name": self.name}


class StalledProgramError(RuntimeError):
    """A phase could not complete (unroutable flows -- dead fabric?)."""

    def __init__(self, phase: str, pending: int) -> None:
        super().__init__(
            f"phase {phase!r} stalled with {pending} unfinished flows "
            "(unreachable destinations?)"
        )
        self.phase = phase
        self.pending = pending


@dataclass
class ProgramResult:
    """What one replay produced, ready for scorecard reduction."""

    #: Wall-clock (simulated) span from replay start to last finish.
    duration_s: float
    #: Per-phase completion times (absolute simulator clock).
    phase_ends: List[float] = field(default_factory=list)
    #: (tag, start_s, finish_s) per logical request: start is the
    #: earliest member flow's start, finish the latest member's finish.
    group_spans: List[Tuple[Hashable, float, float]] = field(default_factory=list)
    #: The live Flow objects, in admission order (post-run analysis).
    flows: List[object] = field(default_factory=list)
    #: Bits delivered by completed flows.
    delivered_bits: float = 0.0

    @property
    def fcts(self) -> List[float]:
        """Per-request completion times (seconds), one per tag group."""
        return [finish - start for _tag, start, finish in self.group_spans]

    @property
    def goodput_bps(self) -> float:
        return self.delivered_bits / self.duration_s if self.duration_s > 0 else 0.0


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile over a pre-sorted sequence."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[index]


def replay_program(
    sim,
    program: FlowProgram,
    *,
    base_s: Optional[float] = None,
    subflows: int = 1,
    on_stall: str = "raise",
) -> ProgramResult:
    """Run a :class:`FlowProgram` on a flow dataplane.

    Phases are MapReduce barriers: phase ``i + 1`` is released when the
    last flow of phase ``i`` completes, and flow start times are offset
    by the release time.  ``base_s`` overrides the release time of the
    first phase (default: the simulator's current clock).

    ``subflows > 1`` splits every spec into that many equal pieces
    (same tag) -- the fluid model of per-packet spraying: the pieces
    land on distinct paths under a rotating policy and the request
    completes when the last piece does.  ``on_stall`` is ``"raise"``
    (default, :class:`StalledProgramError`) or ``"record"`` (stalled
    flows stay pending; the phase barrier releases anyway so the replay
    terminates).
    """
    if subflows < 1:
        raise ValueError(f"subflows must be >= 1, got {subflows}")
    if on_stall not in ("raise", "record"):
        raise ValueError(f"on_stall must be 'raise' or 'record', got {on_stall!r}")
    t = sim.now if base_s is None else base_s
    result = ProgramResult(duration_s=0.0)
    start_t = t
    group_start: Dict[Hashable, float] = {}
    group_finish: Dict[Hashable, float] = {}
    group_order: List[Hashable] = []
    for phase in program.phases:
        admitted = []
        for spec in phase.flows:
            start = t + spec.start_s
            pieces = subflows if spec.size_bits > 0 else 1
            size = spec.size_bits / pieces
            demand = (
                spec.demand_bps / pieces
                if math.isfinite(spec.demand_bps)
                else spec.demand_bps
            )
            for _ in range(pieces):
                flow = sim.add_flow(
                    spec.src, spec.dst, size,
                    start_s=start, demand_bps=demand, tag=spec.tag,
                )
                admitted.append(flow)
            if spec.tag not in group_start:
                group_order.append(spec.tag)
                group_start[spec.tag] = start
            else:
                group_start[spec.tag] = min(group_start[spec.tag], start)
        sim.run()
        unfinished = [f for f in admitted if not f.done]
        if unfinished and on_stall == "raise":
            raise StalledProgramError(phase.name, len(unfinished))
        finished = [f for f in admitted if f.done]
        phase_end = max((f.finished_at for f in finished), default=t)
        result.phase_ends.append(phase_end)
        for flow in finished:
            prev = group_finish.get(flow.tag)
            if prev is None or flow.finished_at > prev:
                group_finish[flow.tag] = flow.finished_at
            result.delivered_bits += flow.size_bits
        result.flows.extend(admitted)
        t = phase_end
    result.duration_s = t - start_t
    result.group_spans = [
        (tag, group_start[tag], group_finish[tag])
        for tag in group_order
        if tag in group_finish
    ]
    return result
