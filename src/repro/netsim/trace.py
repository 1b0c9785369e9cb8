"""The emulator's one event record.

Experiments need per-event timestamps (Figure 11(a) plots the CDF of
notification arrival times across hosts) and the failure tests ask
which hosts heard about a fault.  A :class:`Tracer` is an append-only
log of ``(time, category, node, detail)`` rows in global record order:
devices and the chaos runner call :meth:`record`; benchmarks, tests and
``repro.obs`` snapshots read it back through the small query set below.

Only control-plane events are recorded (failure notifications, patches,
announcements, applied faults), never one row per packet -- delivered
application data lives in each host's ``delivered`` list -- so the log
grows with failures, not with traffic.  It is deliberately unbounded:
Figure 11(a) needs every host's *first* notification, which a ring of
recent events would lose.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, NamedTuple, Optional

__all__ = ["TraceEvent", "Tracer"]


class TraceEvent(NamedTuple):
    time: float
    category: str
    node: str
    detail: Any = None


class Tracer:
    """Append-only event log shared by the devices of one network."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def record(self, time: float, category: str, node: str, detail: Any = None) -> None:
        self._events.append(TraceEvent(time, category, node, detail))

    def clear(self) -> None:
        self._events.clear()

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    # ------------------------------------------------------------------
    # queries

    def seen(self, category: str) -> int:
        """How many events of a category were recorded."""
        return sum(1 for ev in self._events if ev.category == category)

    def last(self, category: str, n: Optional[int] = None) -> List[TraceEvent]:
        """A category's events in record order; only the newest ``n`` if given."""
        matches = [ev for ev in self._events if ev.category == category]
        return matches if n is None else matches[max(len(matches) - n, 0):]

    def first_time_per_node(self, category: str) -> Dict[str, float]:
        """Earliest event time of a category per node -- Figure 11(a) data."""
        out: Dict[str, float] = {}
        for ev in self._events:
            if ev.category == category and ev.node not in out:
                out[ev.node] = ev.time
        return out

    def as_dict(self) -> Dict[str, Any]:
        """Per category (sorted): how many were seen and the last 8."""
        by_category: Dict[str, List[TraceEvent]] = {}
        for ev in self._events:
            by_category.setdefault(ev.category, []).append(ev)
        return {
            category: {
                "seen": len(events),
                "last": [
                    {"time": ev.time, "node": ev.node, "detail": str(ev.detail)}
                    for ev in events[-8:]
                ],
            }
            for category, events in sorted(by_category.items())
        }
