"""Control-plane message payloads.

All DumbNet control traffic is ordinary DumbNet packets whose payloads
are instances of the dataclasses below.  The dataplane never inspects
them -- switches only ever look at tags -- with one exception: the
switch replaces the payload of an ID-query packet with a
:class:`SwitchIDReply` (Section 4.1).

``wire_size`` estimates give the channels realistic byte counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

__all__ = [
    "ProbeMessage",
    "ProbeReply",
    "SwitchIDReply",
    "PortStateNotification",
    "FailureGossip",
    "TopologyPatch",
    "TopologyChange",
    "ControllerAnnounce",
    "PathRequest",
    "PathReply",
    "AppData",
    "Ack",
    "next_nonce",
]

_nonces = itertools.count(1)


def next_nonce() -> int:
    return next(_nonces)


@dataclass(frozen=True)
class ProbeMessage:
    """A probing message (Section 4.1).

    ``reply_tags`` is the precomputed return route a receiving *host*
    must use.  (The paper stores the forward path and lets the receiver
    reverse it; carrying the return route directly is the same
    information with less arithmetic at the receiver.)
    """

    nonce: int
    origin: str
    reply_tags: Tuple[int, ...]
    wire_size: int = 32


@dataclass(frozen=True)
class ProbeReply:
    """Sent by a host that received a :class:`ProbeMessage`."""

    nonce: int
    host: str
    wire_size: int = 24


@dataclass(frozen=True)
class SwitchIDReply:
    """Installed by a switch processing an ID-query tag.

    ``echo`` preserves the original probe payload so the prober can
    correlate the reply (the nonce rides inside it).
    """

    switch_id: str
    echo: Any
    wire_size: int = 40


@dataclass(frozen=True)
class PortStateNotification:
    """Stage-1 failure news, originated by a switch (Section 4.2).

    ``seq`` makes duplicate suppression on hosts trivial: a host acts on
    a (switch, port, seq) triple at most once.
    """

    switch: str
    port: int
    up: bool
    seq: int
    wire_size: int = 20


@dataclass(frozen=True)
class FailureGossip:
    """Host-to-host flood wrapping a :class:`PortStateNotification`."""

    notification: PortStateNotification
    relayed_by: str
    wire_size: int = 28


@dataclass(frozen=True)
class TopologyChange:
    """One delta in a topology patch.

    ``op`` is one of ``link-down``, ``link-up``, ``switch-down``,
    ``switch-up``; ``args`` identify the element.
    """

    op: str
    args: Tuple[Any, ...]


@dataclass(frozen=True)
class TopologyPatch:
    """Stage-2 controller message: bring host caches up to date."""

    version: int
    changes: Tuple[TopologyChange, ...]
    origin: str
    wire_size: int = 64


@dataclass(frozen=True)
class ControllerAnnounce:
    """Sent by the controller after discovery: "I am here".

    Carries the tag route the receiving host should use to reach the
    controller, the receiver's own attachment point (hosts cannot see
    their own port number without probing), and the gossip neighbors the
    host floods failure news to (host name -> tuple of disjoint tag
    routes; floods are sent on every route so that the failure being
    reported cannot sever its own report).
    """

    controller: str
    tags_to_controller: Tuple[int, ...]
    your_attachment: Tuple[str, int]
    gossip_neighbors: Tuple[Tuple[str, Tuple[Tuple[int, ...], ...]], ...]
    wire_size: int = 96


@dataclass(frozen=True)
class PathRequest:
    """Host -> controller: paths to reach ``dst`` please (Section 4.3)."""

    nonce: int
    src: str
    dst: str
    reply_tags: Tuple[int, ...]
    wire_size: int = 32


@dataclass(frozen=True)
class PathReply:
    """Controller -> host: the path graph for (src, dst).

    ``edges`` is the serialized subgraph: (switch, port, switch, port)
    tuples.  ``dst_attachment`` locates the destination host;
    ``src_attachment`` locates the requester (it may not know its own
    port before asking).  ``wire_size`` scales with the subgraph so
    cache-size experiments (Figure 12) translate into bytes.
    """

    nonce: int
    src: str
    dst: str
    found: bool
    src_attachment: Optional[Tuple[str, int]]
    dst_attachment: Optional[Tuple[str, int]]
    edges: Tuple[Tuple[str, int, str, int], ...]
    version: int

    @property
    def wire_size(self) -> int:
        return 32 + 8 * len(self.edges)


@dataclass(frozen=True)
class AppData:
    """Opaque application payload (what IP traffic rides in)."""

    data: Any
    wire_size: int = 0


@dataclass(frozen=True)
class Ack:
    """Generic acknowledgement used by request/response helpers."""

    nonce: int
    wire_size: int = 16
