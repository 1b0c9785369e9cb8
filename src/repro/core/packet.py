"""DumbNet packet format (Section 5.1, Figure 3).

A DumbNet frame is an Ethernet frame whose EtherType is 0x9800 and whose
header carries the routing tags between the Ethernet header and the
payload.  Each tag names the output port of one hop; the list ends with
the ``ø`` marker (0xFF).  Tag 0 is the switch-ID query (Section 4.1).

The emulator keeps packets as Python objects, but the header layout is
byte-accurate: :func:`encode_tags` / :func:`decode_tags` round-trip the
wire format, and :attr:`Packet.size_bytes` is what the channels charge
for serialization (one byte per tag, MPLS-style shim semantics).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

__all__ = [
    "ETHERTYPE_DUMBNET",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_NOTIFY",
    "END_OF_PATH",
    "ID_QUERY",
    "MAX_PORT_TAG",
    "ETHERNET_HEADER_BYTES",
    "DUMBNET_MTU",
    "PathTags",
    "Packet",
    "PacketFormatError",
    "encode_tags",
    "decode_tags",
]

ETHERTYPE_DUMBNET = 0x9800
ETHERTYPE_IPV4 = 0x0800
#: Port-state notification frames (Section 4.2 stage 1).  The switch
#: floods these with a hop limit; they carry no routing tags.
ETHERTYPE_NOTIFY = 0x9801

END_OF_PATH = 0xFF  # the paper's ø marker
ID_QUERY = 0x00     # tag 0: "reply with your switch ID"
MAX_PORT_TAG = 0xFE  # 254: ports are 1..254, leaving 0 and 0xFF reserved

ETHERNET_HEADER_BYTES = 14
#: The paper sets host MTU to 1450 to leave room for the labels.
DUMBNET_MTU = 1450


class PacketFormatError(ValueError):
    """Malformed tag sequences or header contents."""


def encode_tags(ports: Sequence[int]) -> bytes:
    """Wire-encode a port sequence, appending the ø terminator."""
    for port in ports:
        if not 0 <= port <= MAX_PORT_TAG:
            raise PacketFormatError(f"tag {port} outside 0..{MAX_PORT_TAG}")
    return bytes(ports) + bytes([END_OF_PATH])


def decode_tags(raw: bytes) -> List[int]:
    """Parse a wire tag field back into a port list (terminator dropped)."""
    if not raw or raw[-1] != END_OF_PATH:
        raise PacketFormatError("tag field must end with the ø marker")
    body = raw[:-1]
    if END_OF_PATH in body:
        raise PacketFormatError("ø marker inside the tag list")
    return list(body)


class PathTags:
    """The mutable in-flight tag list of one packet.

    Switches call :meth:`pop` once per hop; the destination host checks
    :attr:`at_end` before handing the payload to the network stack
    (Section 5.1: "the destination host agent needs to check if the
    remaining tag is ø").
    """

    __slots__ = ("_tags", "_cursor")

    def __init__(self, ports: Sequence[int]) -> None:
        tags = tuple(ports)
        if tags and not 0 <= min(tags) <= max(tags) <= MAX_PORT_TAG:
            bad = next(p for p in tags if not 0 <= p <= MAX_PORT_TAG)
            raise PacketFormatError(f"tag {bad} outside 0..{MAX_PORT_TAG}")
        self._tags: Tuple[int, ...] = tags
        self._cursor = 0

    @classmethod
    def from_wire(cls, raw: bytes) -> "PathTags":
        return cls(decode_tags(raw))

    def to_wire(self) -> bytes:
        return encode_tags(self.remaining)

    # ------------------------------------------------------------------

    @property
    def at_end(self) -> bool:
        """True when only the ø marker is left."""
        return self._cursor >= len(self._tags)

    @property
    def remaining(self) -> Tuple[int, ...]:
        return self._tags[self._cursor:]

    @property
    def original(self) -> Tuple[int, ...]:
        """The full tag list as sent -- used by probe-reply bookkeeping."""
        return self._tags

    def peek(self) -> int:
        cursor = self._cursor
        if cursor >= len(self._tags):
            raise PacketFormatError("peek past ø")
        return self._tags[cursor]

    def pop(self) -> int:
        """Consume and return the next hop tag."""
        cursor = self._cursor
        tags = self._tags
        if cursor >= len(tags):
            raise PacketFormatError("peek past ø")
        self._cursor = cursor + 1
        return tags[cursor]

    def pop_or_none(self) -> Optional[int]:
        """:meth:`pop`, but ``None`` at ø instead of raising.

        Fuses the ``at_end`` check and the pop into one call -- the
        switch dataplane does this once per hop for every frame.
        """
        cursor = self._cursor
        tags = self._tags
        if cursor >= len(tags):
            return None
        self._cursor = cursor + 1
        return tags[cursor]

    @property
    def wire_bytes(self) -> int:
        """Bytes the remaining tag field occupies on the wire (incl. ø)."""
        return len(self._tags) - self._cursor + 1

    def copy(self) -> "PathTags":
        clone = PathTags(self._tags)
        clone._cursor = self._cursor
        return clone

    def __repr__(self) -> str:
        shown = "-".join(str(t) for t in self.remaining)
        return f"PathTags({shown}-ø)" if shown else "PathTags(ø)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathTags):
            return NotImplemented
        return self.remaining == other.remaining

    def __hash__(self) -> int:
        return hash(self.remaining)


_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """An emulated frame.

    ``src`` / ``dst`` play the role of Ethernet MAC addresses (the
    emulator simply uses host names).  ``dst`` may be empty: DumbNet
    forwarding never looks at it, only the tags.
    """

    src: str
    dst: str = ""
    ethertype: int = ETHERTYPE_DUMBNET
    tags: Optional[PathTags] = None
    payload: Any = None
    payload_bytes: int = 0
    ttl: int = 0  # only used by ETHERTYPE_NOTIFY broadcast frames
    #: Congestion-experienced bit, set by :class:`~repro.core.ecn.EcnSwitch`.
    ecn_marked: bool = False
    #: Traffic class for :class:`~repro.core.qos.QosSwitch` (0 = control).
    priority: int = 1
    uid: int = field(default_factory=_packet_ids.__next__)

    @property
    def size_bytes(self) -> int:
        size = ETHERNET_HEADER_BYTES + self.payload_bytes
        tags = self.tags
        if tags is not None:
            # Inline tags.wire_bytes: this property is charged per frame.
            size += len(tags._tags) - tags._cursor + 1
        if self.ethertype == ETHERTYPE_NOTIFY:
            size += 1  # the hop-limit byte
        return size

    def fork(self) -> "Packet":
        """A copy with independent tag state and the next uid, for
        broadcast fan-out.  Built directly: ``dataclasses.replace`` is
        about twice as slow, and a notification flood forks per port."""
        tags = self.tags
        return Packet(
            self.src, self.dst, self.ethertype, None if tags is None else tags.copy(),
            self.payload, self.payload_bytes, self.ttl, self.ecn_marked,
            self.priority, next(_packet_ids),
        )

    def __repr__(self) -> str:
        kind = type(self.payload).__name__ if self.payload is not None else "empty"
        return (
            f"<Packet #{self.uid} {self.src!r}->{self.dst!r} "
            f"type=0x{self.ethertype:04x} tags={self.tags} {kind}>"
        )
