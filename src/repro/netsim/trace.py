"""Trace recording for emulation runs.

Experiments need per-event timestamps (Figure 11(a) plots the CDF of
notification arrival times across hosts).  A :class:`Tracer` is a cheap
append-only log of (time, category, detail) rows with small query
helpers; devices call :meth:`record` and benchmarks slice afterwards.

The tracer also gates the emulator's profiling counters: construct it
with ``counters_enabled=True`` and the :class:`~repro.netsim.network.
Network` wires one :class:`PerfCounters` bucket per device and per
channel.  When the flag is off (the default) the hot path pays exactly
one ``is not None`` check per frame -- profiling costs nothing unless
asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from ..obs.report import PerfReport

__all__ = ["TraceEvent", "Tracer", "PerfCounters"]


@dataclass(frozen=True)
class TraceEvent:
    time: float
    category: str
    node: str
    detail: Any = None


class PerfCounters:
    """One profiling bucket: a handful of plain numeric fields.

    Channels fill frames/bits/wait_s (wait_s is time frames spent
    queued behind earlier frames on the same direction); devices fill
    frames/service_s/depth_max (service_s is accumulated processing
    delay, depth_max the service-queue high-water mark).
    """

    __slots__ = ("frames", "bits", "wait_s", "service_s", "depth_max")

    def __init__(self) -> None:
        self.frames = 0
        self.bits = 0.0
        self.wait_s = 0.0
        self.service_s = 0.0
        self.depth_max = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "frames": self.frames,
            "bits": self.bits,
            "wait_s": self.wait_s,
            "service_s": self.service_s,
            "depth_max": self.depth_max,
        }


class Tracer:
    """Append-only event log shared by the devices of one network."""

    def __init__(self, enabled: bool = True, counters_enabled: bool = False) -> None:
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        self.counters_enabled = counters_enabled
        self.counters: Dict[str, PerfCounters] = {}
        #: Optional flight-recorder tap (anything with the same
        #: ``record`` signature); the obs layer points this at its
        #: bounded ring buffer.  None costs one check per traced event.
        self.obs_sink: Optional[Any] = None

    def record(self, time: float, category: str, node: str, detail: Any = None) -> None:
        if self.enabled:
            self.events.append(TraceEvent(time, category, node, detail))
        sink = self.obs_sink
        if sink is not None:
            sink.record(time, category, node, detail)

    def clear(self) -> None:
        self.events.clear()

    # ------------------------------------------------------------------
    # profiling counters

    def counters_for(self, label: str) -> PerfCounters:
        """The (created-on-first-use) profiling bucket for ``label``."""
        bucket = self.counters.get(label)
        if bucket is None:
            bucket = self.counters[label] = PerfCounters()
        return bucket

    def report(self) -> PerfReport:
        """All profiling buckets behind the common report protocol
        (``.counters`` is the old label -> plain-dict mapping)."""
        return PerfReport({
            label: self.counters[label].as_dict()
            for label in sorted(self.counters)
        })

    # ------------------------------------------------------------------
    # queries

    def by_category(self, category: str) -> List[TraceEvent]:
        return [ev for ev in self.events if ev.category == category]

    def first(self, category: str, node: Optional[str] = None) -> Optional[TraceEvent]:
        for ev in self.events:
            if ev.category == category and (node is None or ev.node == node):
                return ev
        return None

    def times(self, category: str) -> List[float]:
        return [ev.time for ev in self.events if ev.category == category]

    def first_time_per_node(self, category: str) -> Dict[str, float]:
        """Earliest event time of a category per node -- Figure 11(a) data."""
        out: Dict[str, float] = {}
        for ev in self.events:
            if ev.category == category and ev.node not in out:
                out[ev.node] = ev.time
        return out

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)
