"""iperf-analogue traffic drivers for the packet-level emulator.

The paper "uses iperf for traffic generation in the micro-benchmarks".
This module drives the emulated fabric the same way:

* :class:`CbrStream` -- a constant-bit-rate packet stream between two
  DumbNet agents, with per-bin received-throughput accounting (the
  Figure 11(b) recovery curves);
* :func:`measure_rtts` -- all-pairs ping over the live fabric, including
  the cold-start controller queries that produce Figure 10's long tail.

Both drivers are inherently packet-level (they schedule frames on the
emulator's event loop), so they sit outside the flow-program pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.fabric import DumbNetFabric
from ..core.host_agent import HostAgent
from ..core.packet import DUMBNET_MTU

__all__ = ["CbrStream", "measure_rtts", "RttSample"]


class CbrStream:
    """Constant-bit-rate stream of DumbNet frames.

    ``start``/``stop`` bracket the stream; the receive side records
    arrival bytes so :meth:`throughput_bins` can produce a rate-vs-time
    series; it consumes its own frames (they reach no ``delivered``
    log) and passes other payloads on.  One packet is scheduled at a
    time (self-clocking), so a stalled network simply pauses the stream
    instead of flooding the event heap.
    """

    def __init__(
        self,
        src_agent: HostAgent,
        dst_agent: HostAgent,
        rate_bps: float,
        packet_bytes: int = DUMBNET_MTU,
        flow_key: object = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.src = src_agent
        self.dst = dst_agent
        self.rate_bps = rate_bps
        self.packet_bytes = packet_bytes
        self.flow_key = flow_key if flow_key is not None else (src_agent.name, dst_agent.name)
        self.interval_s = packet_bytes * 8 / rate_bps
        self.running = False
        self.started_at = 0.0
        self.sent_packets = 0
        self.arrivals: List[Tuple[float, int]] = []  # (time, bytes)
        self._install_receiver()

    def _install_receiver(self) -> None:
        previous = self.dst.app_receive
        me = self

        def receive(src: str, payload: object, now: float) -> None:
            if isinstance(payload, tuple) and payload[:1] == ("cbr",) and payload[1] is me.flow_key:
                me.arrivals.append((now, me.packet_bytes))
            else:
                previous(src, payload, now)

        self.dst.app_receive = receive

    # ------------------------------------------------------------------

    def start(self, at_s: float = 0.0) -> None:
        self.running = True
        delay = max(0.0, at_s - self.src.loop.now)
        self.started_at = self.src.loop.now + delay
        self.src.loop.schedule(delay, self._tick)

    def stop(self) -> None:
        self.running = False

    def _tick(self) -> None:
        if not self.running:
            return
        self.src.send_app(
            self.dst.name,
            ("cbr", self.flow_key, self.sent_packets),
            payload_bytes=self.packet_bytes,
            flow_key=self.flow_key,
        )
        self.sent_packets += 1
        self.src.loop.schedule(self.interval_s, self._tick)

    # ------------------------------------------------------------------

    def throughput_bins(
        self, bin_s: float, until: float, start: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """(bin start, received bps) rows.

        Bin edges are relative to ``start`` (default: when the stream
        started); ``until`` is also relative -- "the first 20 ms of the
        stream" is ``throughput_bins(..., until=0.02)``.
        """
        base = self.started_at if start is None else start
        bins: List[Tuple[float, float]] = []
        t = 0.0
        arrivals = sorted(self.arrivals)
        i = 0
        while t < until:
            hi = t + bin_s
            received = 0
            while i < len(arrivals) and arrivals[i][0] - base < hi:
                if arrivals[i][0] - base >= t:
                    received += arrivals[i][1]
                i += 1
            bins.append((t, received * 8 / bin_s))
            t = hi
        return bins


@dataclass(frozen=True, slots=True)
class RttSample:
    src: str
    dst: str
    seq: int
    rtt_s: float
    cold_start: bool


def measure_rtts(
    fabric: DumbNetFabric,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    packets_per_pair: int = 100,
    gap_s: float = 200e-6,
    stagger_s: float = 0.0,
) -> List[RttSample]:
    """Ping every pair and collect RTTs through the live emulator.

    "we send 100 packets between every pair of hosts and measure the
    end-to-end round-trip time" (Section 7.2.2).  ``stagger_s = 0``
    starts all pairs simultaneously, reproducing the paper's worst-case
    concurrent-query tail; a positive stagger spreads the cold-start
    queries out.  Pings and pongs are consumed (they reach no
    ``delivered`` log); other payloads pass on to the replaced receiver.
    """
    hosts = fabric.topology.hosts
    if pairs is None:
        pairs = [(a, b) for a in hosts for b in hosts if a != b]
    samples: List[RttSample] = []
    send_times: Dict[Tuple[str, str, int], Tuple[float, bool]] = {}

    for host in hosts:
        agent = fabric.agents[host]
        previous = agent.app_receive

        def receive(src: str, payload: object, now: float, _agent=agent, _prev=previous) -> None:
            if isinstance(payload, tuple) and payload and payload[0] == "ping":
                _tag, origin, seq = payload
                _agent.send_app(origin, ("pong", _agent.name, seq), payload_bytes=64)
            elif isinstance(payload, tuple) and payload and payload[0] == "pong":
                _tag, responder, seq = payload
                key = (_agent.name, responder, seq)
                state = send_times.pop(key, None)
                if state is not None:
                    sent_at, cold = state
                    samples.append(
                        RttSample(
                            src=_agent.name,
                            dst=responder,
                            seq=seq,
                            rtt_s=now - sent_at,
                            cold_start=cold,
                        )
                    )
            else:
                _prev(src, payload, now)

        agent.app_receive = receive

    def launch(src: str, dst: str, seq: int) -> None:
        agent = fabric.agents[src]
        cold = agent.path_table.entry(dst) is None
        send_times[(src, dst, seq)] = (fabric.loop.now, cold)
        agent.send_app(dst, ("ping", src, seq), payload_bytes=64)

    fabric.loop.call_batch(
        _PingBatch(fabric.loop.now, pairs, packets_per_pair, gap_s, stagger_s, launch)
    )
    fabric.run_until_idle()
    return samples


class _PingBatch:
    """:func:`measure_rtts`' pings as one sized, re-iterable
    :meth:`~repro.netsim.events.EventLoop.call_batch` batch: ping
    ``seq`` of pair ``index`` is due ``index * stagger_s + seq * gap_s``
    after ``now``, and pings due at one instant keep their pair-major
    listing order.  Pairs due at the same offsets (all of them when
    ``stagger_s`` is 0) form one run in time order; iterating merges
    the runs lazily on ``(time, index, seq)`` tuples."""

    def __init__(self, now, pairs, per_pair, gap_s, stagger_s, launch) -> None:
        self.now, self.pairs, self.per_pair = now, pairs, per_pair
        self.gap_s, self.stagger_s, self.launch = gap_s, stagger_s, launch

    def __len__(self) -> int:
        return len(self.pairs) * self.per_pair

    def __iter__(self):
        now, gap_s, launch = self.now, self.gap_s, self.launch
        runs: Dict[float, list] = {}  # base delay -> [(index, src, dst)]
        for index, (src, dst) in enumerate(self.pairs):
            runs.setdefault(index * self.stagger_s, []).append((index, src, dst))

        def run(base: float, group: list):
            times = groupby(range(self.per_pair), lambda seq: now + (base + seq * gap_s))
            for time, seqs in times:
                seqs = list(seqs)
                for index, src, dst in group:
                    for seq in seqs:
                        yield time, index, seq, base + seq * gap_s, src, dst

        merged = merge(*(run(base, group) for base, group in runs.items()))
        for _time, _index, seq, delay, src, dst in merged:
            yield delay, launch, (src, dst, seq)
