"""Region-of-interest model for the hybrid-fidelity dataplane.

A :class:`RegionOfInterest` says *which traffic deserves packet-level
fidelity*.  Everything else stays in the fluid max-min model.  The
supported selectors mirror the situations where flow-level modelling is
known to be least trustworthy:

* **named links / ports / switches** -- a congested uplink, a failure
  epicenter (promote every flow crossing the failed switch), a suspect
  cable;
* **flow tags** -- one HiBench stage, one incast fan-in;
* **hosts** -- incast victims: promote every flow that starts or ends
  at the receiver.

Selectors compose with ``|`` (union).  The empty region promotes
nothing: a hybrid engine with an empty ROI is *exactly* the fluid
simulator (the test suite pins that equivalence).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, Iterable, Sequence, Tuple

__all__ = ["RegionOfInterest"]


def _norm_link(link: Any) -> Tuple:
    """Accept ("tx", sw, port), (sw, port) or a bare switch name."""
    if isinstance(link, tuple):
        if len(link) == 3 and link[0] in ("tx", "htx"):
            return link
        if len(link) == 2:
            return ("tx", link[0], link[1])
    raise ValueError(f"not a link id: {link!r} (want ('tx', sw, port) or (sw, port))")


class RegionOfInterest:
    """Immutable selector for the traffic promoted to packet fidelity."""

    __slots__ = ("links", "switches", "tags", "hosts", "everything")

    def __init__(
        self,
        *,
        links: Iterable[Any] = (),
        switches: Iterable[str] = (),
        tags: Iterable[Hashable] = (),
        hosts: Iterable[str] = (),
        everything: bool = False,
    ) -> None:
        self.links: FrozenSet[Tuple] = frozenset(_norm_link(l) for l in links)
        self.switches: FrozenSet[str] = frozenset(switches)
        self.tags: FrozenSet[Hashable] = frozenset(tags)
        self.hosts: FrozenSet[str] = frozenset(hosts)
        self.everything = bool(everything)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def empty(cls) -> "RegionOfInterest":
        """Promote nothing: pure fluid simulation."""
        return cls()

    @classmethod
    def all(cls) -> "RegionOfInterest":
        """Promote every flow: pure packet simulation (the baseline the
        hybrid speedup is measured against)."""
        return cls(everything=True)

    @classmethod
    def of_hosts(cls, *hosts: str) -> "RegionOfInterest":
        """Incast victims: any flow starting or ending at a host."""
        return cls(hosts=hosts)

    def __or__(self, other: "RegionOfInterest") -> "RegionOfInterest":
        return RegionOfInterest(
            links=self.links | other.links,
            switches=self.switches | other.switches,
            tags=self.tags | other.tags,
            hosts=self.hosts | other.hosts,
            everything=self.everything or other.everything,
        )

    # ------------------------------------------------------------------
    # matching

    @property
    def is_empty(self) -> bool:
        return not (
            self.everything or self.links or self.switches or self.tags or self.hosts
        )

    @property
    def needs_route(self) -> bool:
        """Link-level selectors need the flow's route before the
        promotion decision can be made."""
        return bool(self.links or self.switches)

    def matches_flow(self, flow: Any) -> bool:
        """Flow-attribute selectors (no route required)."""
        if self.everything:
            return True
        if self.tags and flow.tag in self.tags:
            return True
        if self.hosts and (flow.src in self.hosts or flow.dst in self.hosts):
            return True
        return False

    def matches_links(self, route_links: Sequence[Tuple]) -> bool:
        """Link-level selectors against a flow's directed link list."""
        if self.everything:
            return True
        for link in route_links:
            if link in self.links:
                return True
            if self.switches and link[0] == "tx" and link[1] in self.switches:
                return True
        return False

    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        return {
            "everything": self.everything,
            "links": sorted(map(str, self.links)),
            "switches": sorted(self.switches),
            "tags": sorted(map(str, self.tags)),
            "hosts": sorted(self.hosts),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.everything:
            return "RegionOfInterest.all()"
        if self.is_empty:
            return "RegionOfInterest.empty()"
        parts = []
        for name in ("links", "switches", "tags", "hosts"):
            vals = getattr(self, name)
            if vals:
                parts.append(f"{name}={sorted(map(str, vals))}")
        return f"RegionOfInterest({', '.join(parts)})"
