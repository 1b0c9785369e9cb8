"""The one report protocol every fabric-facing snapshot speaks.

Before this module the repo had disjoint report shapes: the telemetry
:class:`FabricReport`, the chaos :class:`ChaosReport`, the path-service
stats dict, and ad-hoc per-agent counters.  :class:`ReportBase` gives
them a single surface -- ``as_dict()`` (plain JSON-able data, ``kind``
key first), ``to_json()``, and ``summary()`` (human-oriented text) --
so callers can treat any snapshot uniformly.

This module is a dependency leaf on purpose: ``repro.core.telemetry``
and the flow-level engines import from it, so it must not import them
back.
"""

from __future__ import annotations

import json
from typing import Any, Dict

__all__ = ["ReportBase", "report_to_json"]


def report_to_json(data: Any, indent: int = 2) -> str:
    """Canonical JSON rendering shared by every report: sorted keys,
    non-JSON leaves stringified (Violation objects, tuples-as-keys...)."""
    return json.dumps(data, indent=indent, sort_keys=True, default=str)


class ReportBase:
    """Mixin giving a report the common ``as_dict``/``to_json``/
    ``summary`` surface.

    Subclasses implement :meth:`as_dict` returning plain JSON-able data
    with a ``kind`` key identifying the report type; ``to_json`` and
    the default ``summary`` derive from it.
    """

    def as_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def to_json(self, indent: int = 2) -> str:
        return report_to_json(self.as_dict(), indent=indent)

    def summary(self) -> str:
        """One-line-per-top-level-key text rendering; subclasses with a
        richer native summary override this."""
        data = self.as_dict()
        lines = []
        for key in sorted(data):
            if key == "kind":
                continue
            value = data[key]
            if isinstance(value, dict):
                lines.append(f"{key}: {len(value)} entries")
            elif isinstance(value, (list, tuple)):
                lines.append(f"{key}: {len(value)} items")
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines)

