"""The fault-timeline DSL.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`
records.  Builder methods append events and return ``self`` so
timelines read as scripts::

    sched = (FaultSchedule()
             .link_flap(0.10, ("edge0_0", 1, "agg0_0", 3), down_for=0.05)
             .loss_burst(0.20, 0.10, link=("core0", 1, "agg0_0", 1), rate=0.3)
             .switch_crash(0.40, "agg1_1", restart_after=0.15)
             .controller_failover(0.70))

:meth:`FaultSchedule.random` generates a randomized timeline from a
seed.  Generation touches no global state and draws every decision from
one ``random.Random(seed)`` over *sorted* element lists, so the same
(topology, seed) pair always yields the identical schedule --
:meth:`digest` is the byte-for-byte fingerprint CI compares.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..topology.graph import Topology

__all__ = ["FaultEvent", "FaultSchedule", "ScheduleError", "FAULT_KINDS"]

#: A link target: (switch_a, port_a, switch_b, port_b).
LinkTarget = Tuple[str, int, str, int]

#: Every kind the runner knows how to apply.
FAULT_KINDS = (
    "link-down",
    "link-up",
    "loss-start",
    "loss-end",
    "delay-start",
    "delay-end",
    "dup-start",
    "dup-end",
    "switch-crash",
    "switch-restart",
    "switch-join",
    "host-partition",
    "host-rejoin",
    "controller-failover",
)


class ScheduleError(ValueError):
    """A malformed fault event or timeline."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``args`` identify the target (link endpoints, switch name, host
    name, fault rate...).  ``resolver``, when set, is called with the
    live fabric at fire time and returns the concrete args -- this is
    how a script can target "whatever link the flow is bound to *now*"
    (the Figure 11(b) bench does exactly that).
    """

    time: float
    kind: str
    args: Tuple = ()
    resolver: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ScheduleError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise ScheduleError(f"fault scheduled in the past: {self.time}")

    def describe(self, args: Optional[Tuple] = None) -> str:
        shown = self.args if args is None else args
        body = " ".join(str(a) for a in shown)
        return f"{self.time:.9f} {self.kind} {body}".rstrip()


class FaultSchedule:
    """An ordered fault timeline with a chainable builder API."""

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self._events: List[FaultEvent] = list(events)

    # ------------------------------------------------------------------
    # builder DSL

    def add(self, event: FaultEvent) -> "FaultSchedule":
        self._events.append(event)
        return self

    def link_down(self, t: float, link) -> "FaultSchedule":
        return self._link_event(t, "link-down", link)

    def link_up(self, t: float, link) -> "FaultSchedule":
        return self._link_event(t, "link-up", link)

    def link_flap(self, t: float, link, down_for: float) -> "FaultSchedule":
        """Cut a link at ``t`` and restore it ``down_for`` later."""
        self.link_down(t, link)
        return self.link_up(t + down_for, link)

    def _link_event(self, t: float, kind: str, link) -> "FaultSchedule":
        if callable(link):
            return self.add(FaultEvent(t, kind, resolver=link))
        sw_a, port_a, sw_b, port_b = link
        return self.add(FaultEvent(t, kind, (sw_a, port_a, sw_b, port_b)))

    def loss_burst(
        self,
        t: float,
        duration: float,
        rate: float,
        link: Optional[LinkTarget] = None,
        host: Optional[str] = None,
    ) -> "FaultSchedule":
        """Frames on one link (or one host NIC) are lost with
        probability ``rate`` for ``duration`` seconds."""
        target = self._channel_target(link, host)
        self.add(FaultEvent(t, "loss-start", target + (rate,)))
        return self.add(FaultEvent(t + duration, "loss-end", target))

    def delay_burst(
        self,
        t: float,
        duration: float,
        extra_s: float,
        link: Optional[LinkTarget] = None,
        host: Optional[str] = None,
    ) -> "FaultSchedule":
        """Add ``extra_s`` of flat latency to a channel for a window."""
        target = self._channel_target(link, host)
        self.add(FaultEvent(t, "delay-start", target + (extra_s,)))
        return self.add(FaultEvent(t + duration, "delay-end", target))

    def dup_burst(
        self,
        t: float,
        duration: float,
        rate: float,
        link: Optional[LinkTarget] = None,
        host: Optional[str] = None,
    ) -> "FaultSchedule":
        """Frames on a channel are duplicated with probability ``rate``."""
        target = self._channel_target(link, host)
        self.add(FaultEvent(t, "dup-start", target + (rate,)))
        return self.add(FaultEvent(t + duration, "dup-end", target))

    @staticmethod
    def _channel_target(link: Optional[LinkTarget], host: Optional[str]) -> Tuple:
        if (link is None) == (host is None):
            raise ScheduleError("give exactly one of link= or host=")
        if link is not None:
            return ("link",) + tuple(link)
        return ("host", host)

    def switch_crash(
        self, t: float, switch: str, restart_after: Optional[float] = None
    ) -> "FaultSchedule":
        self.add(FaultEvent(t, "switch-crash", (switch,)))
        if restart_after is not None:
            self.add(FaultEvent(t + restart_after, "switch-restart", (switch,)))
        return self

    def controller_failover(self, t: float) -> "FaultSchedule":
        """Kill the current primary controller and promote a standby
        (requires a fabric with a ReplicatedControlPlane)."""
        return self.add(FaultEvent(t, "controller-failover"))

    # ------------------------------------------------------------------
    # queries

    def events(self) -> Tuple[FaultEvent, ...]:
        """Events in firing order (stable for equal times)."""
        return tuple(sorted(self._events, key=lambda e: e.time))

    def __len__(self) -> int:
        return len(self._events)

    @property
    def horizon(self) -> float:
        """When the last scheduled event fires."""
        return max((e.time for e in self._events), default=0.0)

    def describe(self) -> str:
        """Canonical text form; identical schedules produce identical
        text (resolver events show as ``<dynamic>`` until applied)."""
        lines = []
        for event in self.events():
            if event.resolver is not None:
                lines.append(f"{event.time:.9f} {event.kind} <dynamic>")
            else:
                lines.append(event.describe())
        return "\n".join(lines)

    def digest(self) -> str:
        return hashlib.sha256(self.describe().encode()).hexdigest()

    # ------------------------------------------------------------------
    # seeded randomized timelines

    @classmethod
    def random(
        cls,
        topology: Topology,
        seed: int,
        n_faults: int = 20,
        start: float = 0.05,
        spacing: float = 0.04,
        include_switch_crash: bool = True,
        include_controller_failover: bool = True,
        protect_hosts: Sequence[str] = (),
    ) -> "FaultSchedule":
        """A deterministic randomized timeline.

        Roughly half the faults are link flaps, a quarter loss bursts,
        and the rest delay/duplication bursts, plus (optionally) one
        switch crash+restart and one controller failover.  Every fault
        ends before the timeline's horizon, so a run that drains the
        loop afterwards quiesces with all injected damage repaired
        except permanent ``link_down``/crash events a caller adds on
        top.  ``protect_hosts`` keeps those hosts (e.g. controllers)
        out of loss-burst targeting.

        Faults are spaced ``spacing`` apart with jittered offsets; the
        schedule draws every choice from ``random.Random(seed)`` over
        sorted candidate lists, so (topology, seed) fully determines
        the timeline -- compare :meth:`digest` across runs.
        """
        rng = random.Random(seed)
        links = sorted(
            (
                (l.a.switch, l.a.port, l.b.switch, l.b.port)
                for l in topology.links
            ),
        )
        if not links:
            raise ScheduleError("need at least one switch-switch link")
        hosts = sorted(h for h in topology.hosts if h not in set(protect_hosts))
        sched = cls()

        # One switch crash+restart, on a switch that keeps the fabric
        # connected while down (skip cut vertices by trial removal).
        crash_switch: Optional[str] = None
        if include_switch_crash:
            for candidate in rng.sample(
                sorted(topology.switches), len(topology.switches)
            ):
                trial = topology.copy()
                for host in list(trial.hosts_on(candidate)):
                    trial.remove_host(host)
                trial.remove_switch(candidate)
                if trial.hosts and trial.is_connected():
                    crash_switch = candidate
                    break

        t = start
        kinds = ["flap"] * 10 + ["loss"] * 5 + ["delay"] * 3 + ["dup"] * 2
        link_cursor = 0
        link_order = rng.sample(links, len(links))
        for i in range(n_faults):
            kind = kinds[i] if i < len(kinds) else rng.choice(kinds)
            # Cycle through a seeded link permutation so concurrent
            # faults land on distinct links.
            link = link_order[link_cursor % len(link_order)]
            link_cursor += 1
            if crash_switch is not None and crash_switch in (link[0], link[2]):
                link = link_order[link_cursor % len(link_order)]
                link_cursor += 1
            window = spacing * (0.5 + rng.random())
            if kind == "flap":
                sched.link_flap(t, link, down_for=window)
            elif kind == "loss":
                if hosts and rng.random() < 0.3:
                    sched.loss_burst(
                        t, window, rate=0.2 + 0.4 * rng.random(),
                        host=rng.choice(hosts),
                    )
                else:
                    sched.loss_burst(
                        t, window, rate=0.2 + 0.4 * rng.random(), link=link
                    )
            elif kind == "delay":
                sched.delay_burst(
                    t, window, extra_s=1e-4 * (1 + rng.random()), link=link
                )
            else:
                sched.dup_burst(
                    t, window, rate=0.2 + 0.3 * rng.random(), link=link
                )
            t += spacing * (0.8 + 0.4 * rng.random())

        if crash_switch is not None:
            sched.switch_crash(t, crash_switch, restart_after=2.5 * spacing)
            t += 4 * spacing
        if include_controller_failover:
            # In a quiet window at the end so the promotion announce
            # flood is not itself chewed up by an injected loss burst.
            sched.controller_failover(t + spacing)
        return sched
