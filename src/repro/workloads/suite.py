"""The canonical datacenter workload suite.

Every class here implements the :class:`~repro.workloads.api.Workload`
protocol: a named, parameterized spec whose :meth:`program` call
materializes a deterministic :class:`~repro.workloads.api.FlowProgram`
from a caller-seeded ``random.Random``.  The families cover the
canonical DC traffic shapes the TE-bake-off scorecard compares:

* :class:`TraceReplay` -- open-loop heavy-tailed flow arrivals from
  the published **websearch** (DCTCP) and **data-mining** (VL2)
  flow-size CDFs;
* :class:`IncastSweep` -- partition/aggregate fan-in rounds at
  increasing fan-in (the classic incast pathology);
* :class:`ElephantMice` -- a latency-sensitive mice stream sharing the
  fabric with a few Pareto elephants;
* :class:`StorageReplication` -- write fan-out: client -> primary ->
  R replicas, all flows of a write forming one logical request;
* :class:`TenantChurn` -- multi-tenant slices under
  :class:`~repro.core.virtualization.VirtualNetworkManager`: tenant
  sessions arrive and depart, each generating intra-slice traffic
  while alive;
* :class:`FixedPairs` -- an explicit traffic matrix (the unified form
  of the old bare pair-generator convention).

:func:`canonical_suite` returns the scorecard's default instances.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from .api import FlowProgram, FlowSpec, Phase, Workload
from .traces import DATA_MINING_CDF, WEB_SEARCH_CDF, mean_flow_bits, sample_flow_bits
from .traffic import pareto_flow_bits, poisson_arrivals

__all__ = [
    "TraceReplay",
    "IncastSweep",
    "ElephantMice",
    "StorageReplication",
    "TenantChurn",
    "FixedPairs",
    "canonical_suite",
]

_NAMED_CDFS = {
    "websearch": WEB_SEARCH_CDF,
    "datamining": DATA_MINING_CDF,
}


def _hosts_of(topology, override: Optional[Sequence[str]]) -> List[str]:
    hosts = list(override) if override is not None else list(topology.hosts)
    if len(hosts) < 2:
        raise ValueError("need at least two hosts")
    return hosts


class TraceReplay(Workload):
    """Open-loop Poisson arrivals with trace-driven flow sizes.

    ``cdf`` is a named distribution (``"websearch"``/``"datamining"``)
    or an explicit (bytes, cumulative-probability) sequence.  ``load_bps``
    is the target aggregate arrival rate; the flow arrival rate is
    derived through the distribution's analytic mean.
    """

    def __init__(
        self,
        cdf="websearch",
        *,
        load_bps: float = 1e9,
        duration_s: float = 0.5,
        hosts: Optional[Sequence[str]] = None,
    ) -> None:
        if isinstance(cdf, str):
            if cdf not in _NAMED_CDFS:
                raise ValueError(
                    f"unknown trace {cdf!r}; pick from {tuple(sorted(_NAMED_CDFS))}"
                )
            self.name = cdf
            self.cdf = _NAMED_CDFS[cdf]
        else:
            self.name = "trace"
            self.cdf = tuple(cdf)
        self.load_bps = load_bps
        self.duration_s = duration_s
        self.hosts = hosts

    def program(self, topology, *, rng: random.Random) -> FlowProgram:
        hosts = _hosts_of(topology, self.hosts)
        rate = self.load_bps / mean_flow_bits(self.cdf)
        flows: List[FlowSpec] = []
        for start in poisson_arrivals(rng, rate, self.duration_s):
            src, dst = rng.sample(hosts, 2)
            size = sample_flow_bits(rng, self.cdf)
            flows.append(
                FlowSpec(start, src, dst, size, tag=("flow", len(flows)))
            )
        return FlowProgram.open_loop(flows, name=self.name)

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "load_bps": self.load_bps,
            "duration_s": self.duration_s,
        }


class IncastSweep(Workload):
    """Partition/aggregate fan-in rounds at increasing fan-in.

    Each round is a barrier phase: one sink, ``fanin`` senders, every
    sender moving ``bits_per_sender``.  The round's tag groups the
    whole fan-in, so its FCT is the aggregate's answer latency.
    """

    name = "incast"

    def __init__(
        self,
        *,
        fanins: Sequence[int] = (4, 8, 16),
        bits_per_sender: float = 4e6,
        rounds_per_fanin: int = 1,
    ) -> None:
        if not fanins or any(f < 1 for f in fanins):
            raise ValueError("fanins must be positive")
        if rounds_per_fanin < 1:
            raise ValueError("rounds_per_fanin must be >= 1")
        self.fanins = tuple(fanins)
        self.bits_per_sender = bits_per_sender
        self.rounds_per_fanin = rounds_per_fanin

    def program(self, topology, *, rng: random.Random) -> FlowProgram:
        hosts = _hosts_of(topology, None)
        phases: List[Phase] = []
        for fanin in self.fanins:
            if fanin + 1 > len(hosts):
                raise ValueError(
                    f"fan-in {fanin} needs {fanin + 1} hosts, topology has "
                    f"{len(hosts)}"
                )
            for round_i in range(self.rounds_per_fanin):
                chosen = rng.sample(hosts, fanin + 1)
                sink, senders = chosen[0], chosen[1:]
                tag = ("incast", fanin, round_i)
                flows = tuple(
                    FlowSpec(0.0, sender, sink, self.bits_per_sender, tag=tag)
                    for sender in senders
                )
                phases.append(Phase(f"fanin-{fanin}-round-{round_i}", flows))
        return FlowProgram(phases=tuple(phases))

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "fanins": list(self.fanins),
            "bits_per_sender": self.bits_per_sender,
        }


class ElephantMice(Workload):
    """A mice RPC stream sharing the fabric with Pareto elephants.

    Mice are latency-sensitive small transfers (uniform around
    ``mouse_bits``); elephants draw from a heavy-tailed Pareto with
    mean ``elephant_mean_bits``.  Both arrive open-loop; the merged
    stream is time-sorted, so the program is one phase.
    """

    name = "elephant-mice"

    def __init__(
        self,
        *,
        duration_s: float = 0.5,
        mice_rate_per_s: float = 2000.0,
        mouse_bits: float = 80e3,
        elephant_rate_per_s: float = 20.0,
        elephant_mean_bits: float = 80e6,
    ) -> None:
        self.duration_s = duration_s
        self.mice_rate_per_s = mice_rate_per_s
        self.mouse_bits = mouse_bits
        self.elephant_rate_per_s = elephant_rate_per_s
        self.elephant_mean_bits = elephant_mean_bits

    def program(self, topology, *, rng: random.Random) -> FlowProgram:
        hosts = _hosts_of(topology, None)
        flows: List[FlowSpec] = []
        for i, start in enumerate(
            poisson_arrivals(rng, self.mice_rate_per_s, self.duration_s)
        ):
            src, dst = rng.sample(hosts, 2)
            size = self.mouse_bits * rng.uniform(0.5, 1.5)
            flows.append(FlowSpec(start, src, dst, size, tag=("mouse", i)))
        for i, start in enumerate(
            poisson_arrivals(rng, self.elephant_rate_per_s, self.duration_s)
        ):
            src, dst = rng.sample(hosts, 2)
            size = pareto_flow_bits(rng, mean_bits=self.elephant_mean_bits)
            flows.append(FlowSpec(start, src, dst, size, tag=("elephant", i)))
        flows.sort(key=lambda f: (f.start_s, f.tag))
        return FlowProgram.open_loop(flows, name=self.name)

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "mice_rate_per_s": self.mice_rate_per_s,
            "elephant_rate_per_s": self.elephant_rate_per_s,
        }


class StorageReplication(Workload):
    """Replicated-write fan-out: client -> primary -> R replicas.

    Every write is one logical request (one tag): the client pushes
    ``write_bits`` to a primary, which simultaneously streams a copy to
    each of ``replicas`` distinct backends -- the fluid-granularity
    model of chain/primary-backup replication, where the primary
    forwards as it receives.  A write's FCT therefore spans until the
    *last replica* holds the data, and the primary's uplink is the
    pressure point.
    """

    name = "storage"

    def __init__(
        self,
        *,
        duration_s: float = 0.5,
        write_rate_per_s: float = 200.0,
        write_bits: float = 8e6,
        replicas: int = 2,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.duration_s = duration_s
        self.write_rate_per_s = write_rate_per_s
        self.write_bits = write_bits
        self.replicas = replicas

    def program(self, topology, *, rng: random.Random) -> FlowProgram:
        hosts = _hosts_of(topology, None)
        if len(hosts) < self.replicas + 2:
            raise ValueError(
                f"{self.replicas} replicas need {self.replicas + 2} hosts"
            )
        flows: List[FlowSpec] = []
        for i, start in enumerate(
            poisson_arrivals(rng, self.write_rate_per_s, self.duration_s)
        ):
            chosen = rng.sample(hosts, self.replicas + 2)
            client, primary, backends = chosen[0], chosen[1], chosen[2:]
            tag = ("write", i)
            flows.append(FlowSpec(start, client, primary, self.write_bits, tag=tag))
            for backend in backends:
                flows.append(
                    FlowSpec(start, primary, backend, self.write_bits, tag=tag)
                )
        return FlowProgram.open_loop(flows, name=self.name)

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "write_rate_per_s": self.write_rate_per_s,
            "replicas": self.replicas,
        }


class TenantChurn(Workload):
    """Multi-tenant slices with session churn.

    Hosts are partitioned round-robin into ``slices`` tenant slices,
    registered with a :class:`~repro.core.virtualization.
    VirtualNetworkManager` so each slice is a *verified* virtual
    network (the manager rejects disconnected or malformed slices
    up front).  Tenant sessions then arrive as a Poisson process: each
    session picks a slice, lives for an exponential holding time, and
    while alive generates intra-slice flows at ``flow_rate_per_s`` with
    sizes from the websearch CDF.  Tags carry the slice index --
    :meth:`accounting` reduces a program back to per-tenant arrival
    counts, which the property tests check against the tag stream.
    """

    name = "tenant-churn"

    def __init__(
        self,
        *,
        slices: int = 4,
        duration_s: float = 0.5,
        session_rate_per_s: float = 20.0,
        mean_session_s: float = 0.2,
        flow_rate_per_s: float = 400.0,
        cdf=WEB_SEARCH_CDF,
    ) -> None:
        if slices < 1:
            raise ValueError("slices must be >= 1")
        self.slices = slices
        self.duration_s = duration_s
        self.session_rate_per_s = session_rate_per_s
        self.mean_session_s = mean_session_s
        self.flow_rate_per_s = flow_rate_per_s
        self.cdf = tuple(cdf)

    def slice_hosts(self, topology) -> List[List[str]]:
        """Round-robin host partition; every slice gets >= 2 hosts."""
        hosts = _hosts_of(topology, None)
        slices = min(self.slices, len(hosts) // 2)
        if slices < 1:
            raise ValueError("not enough hosts for one tenant slice")
        groups: List[List[str]] = [[] for _ in range(slices)]
        for i, host in enumerate(hosts):
            groups[i % slices].append(host)
        return groups

    def program(self, topology, *, rng: random.Random) -> FlowProgram:
        from ..core.virtualization import VirtualNetworkManager

        groups = self.slice_hosts(topology)
        manager = VirtualNetworkManager(topology)
        for index, group in enumerate(groups):
            manager.create_tenant(f"tenant{index}", group)
            if not manager.tenant_connected(f"tenant{index}"):
                raise ValueError(f"tenant slice {index} is not connected")
        flows: List[FlowSpec] = []
        session_id = 0
        for arrive in poisson_arrivals(
            rng, self.session_rate_per_s, self.duration_s
        ):
            slice_index = rng.randrange(len(groups))
            depart = min(
                self.duration_s, arrive + rng.expovariate(1.0 / self.mean_session_s)
            )
            group = groups[slice_index]
            seq = 0
            t = arrive
            while True:
                t += rng.expovariate(self.flow_rate_per_s)
                if t >= depart:
                    break
                src, dst = rng.sample(group, 2)
                size = sample_flow_bits(rng, self.cdf)
                flows.append(
                    FlowSpec(
                        t, src, dst, size,
                        tag=("tenant", slice_index, session_id, seq),
                    )
                )
                seq += 1
            session_id += 1
        flows.sort(key=lambda f: (f.start_s, f.tag))
        return FlowProgram.open_loop(flows, name=self.name)

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "slices": self.slices,
            "duration_s": self.duration_s,
            "session_rate_per_s": self.session_rate_per_s,
        }


class FixedPairs(Workload):
    """An explicit traffic matrix: one flow per (src, dst) pair.

    The unified form of the bare pair-generator convention.  ``tag``
    groups all flows into one request (a shuffle, an all-reduce);
    ``tag=None`` gives each pair its own tag.
    """

    name = "fixed-pairs"

    def __init__(
        self,
        pairs: Sequence[Tuple[str, str]],
        *,
        size_bits: float,
        tag=None,
        start_s: float = 0.0,
    ) -> None:
        self.pairs = list(pairs)
        self.size_bits = size_bits
        self.tag = tag
        self.start_s = start_s

    def program(self, topology, *, rng: random.Random) -> FlowProgram:
        flows = tuple(
            FlowSpec(
                self.start_s, src, dst, self.size_bits,
                tag=self.tag if self.tag is not None else ("pair", src, dst),
            )
            for src, dst in self.pairs
        )
        return FlowProgram.open_loop(flows, name=self.name)

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "pairs": len(self.pairs),
            "size_bits": self.size_bits,
        }


def canonical_suite(*, scale: float = 1.0) -> List[Workload]:
    """The scorecard's default workload family instances.

    ``scale`` multiplies offered volume (sizes and rates) so one knob
    trades runtime for stress; the family shapes are fixed.
    """
    return [
        TraceReplay("websearch", load_bps=2e9 * scale, duration_s=0.2),
        TraceReplay("datamining", load_bps=2e9 * scale, duration_s=0.2),
        IncastSweep(
            fanins=(4, 8, 16), bits_per_sender=4e6 * scale, rounds_per_fanin=2
        ),
        ElephantMice(
            duration_s=0.2,
            mice_rate_per_s=1500.0,
            mouse_bits=80e3 * scale,
            elephant_rate_per_s=25.0,
            elephant_mean_bits=60e6 * scale,
        ),
        StorageReplication(
            duration_s=0.2,
            write_rate_per_s=300.0,
            write_bits=6e6 * scale,
            replicas=2,
        ),
        TenantChurn(slices=4, duration_s=0.2, session_rate_per_s=30.0),
    ]
