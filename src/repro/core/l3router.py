"""A software layer-3 router over DumbNet subnets (Section 6.3).

"A router is simply a number of host agents running on the same node,
one for each DumbNet subnet."  This module glues several
:class:`~repro.core.host_agent.HostAgent` instances together with a
longest-prefix routing table over dotted address strings, and supports
the paper's cross-subnet shortcut: for DumbNet-to-DumbNet flows the
router can hand the source a combined tag path so later packets skip
the router's CPU entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .host_agent import HostAgent

__all__ = ["SoftwareRouter", "RouteEntry", "AddressMap"]


class AddressMap:
    """Maps layer-3 addresses to (subnet, host) pairs.

    Addresses are dotted strings ("10.1.0.7"); subnets are address
    prefixes ("10.1.").  This stands in for ARP + DHCP state the paper's
    deployment would get from the existing host stack.
    """

    def __init__(self) -> None:
        self._hosts: Dict[str, Tuple[str, str]] = {}

    def bind(self, address: str, subnet: str, host: str) -> None:
        if not address.startswith(subnet):
            raise ValueError(f"{address!r} not inside subnet prefix {subnet!r}")
        self._hosts[address] = (subnet, host)

    def resolve(self, address: str) -> Optional[Tuple[str, str]]:
        return self._hosts.get(address)


@dataclass(frozen=True)
class RouteEntry:
    """One row of the router's table: prefix -> outgoing subnet.

    ``via`` names a next-hop router's address inside ``subnet``; when
    unset the destination is directly attached to that subnet.
    """

    prefix: str
    subnet: str
    via: Optional[str] = None

    def matches(self, address: str) -> bool:
        return address.startswith(self.prefix)


@dataclass(frozen=True)
class L3Datagram:
    """The payload routed across subnets."""

    src_address: str
    dst_address: str
    body: Any
    hops: int = 0


class SoftwareRouter:
    """One node, several DumbNet host agents, a routing table."""

    MAX_HOPS = 16

    def __init__(self, name: str, address_map: AddressMap) -> None:
        self.name = name
        self.address_map = address_map
        self.interfaces: Dict[str, HostAgent] = {}
        self.table: List[RouteEntry] = []
        self.forwarded = 0
        self.dropped_no_route = 0
        self.dropped_ttl = 0

    # ------------------------------------------------------------------

    def add_interface(self, subnet: str, agent: HostAgent) -> None:
        """Attach one subnet-facing agent; hooks its delivery path."""
        if subnet in self.interfaces:
            raise ValueError(f"duplicate interface for subnet {subnet!r}")
        self.interfaces[subnet] = agent
        agent.app_receive = self._make_receiver(subnet, agent.app_receive)

    def add_route(self, prefix: str, subnet: str, via: Optional[str] = None) -> None:
        if subnet not in self.interfaces:
            raise ValueError(f"no interface for subnet {subnet!r}")
        if via is not None and not via.startswith(subnet):
            raise ValueError(f"next hop {via!r} not inside subnet {subnet!r}")
        self.table.append(RouteEntry(prefix=prefix, subnet=subnet, via=via))
        # Longest prefix first, exactly like an LPM table.
        self.table.sort(key=lambda entry: len(entry.prefix), reverse=True)

    def lookup(self, address: str) -> Optional[RouteEntry]:
        for entry in self.table:
            if entry.matches(address):
                return entry
        return None

    # ------------------------------------------------------------------

    def _make_receiver(self, in_subnet: str, previous: Callable[[str, Any, float], None]):
        def receive(src: str, payload: Any, now: float) -> None:
            if isinstance(payload, L3Datagram):
                self.forward(payload, in_subnet)
            else:
                previous(src, payload, now)
        return receive

    def forward(self, datagram: L3Datagram, in_subnet: str) -> bool:
        """Route one datagram toward its destination subnet."""
        if datagram.hops >= self.MAX_HOPS:
            self.dropped_ttl += 1
            return False
        entry = self.lookup(datagram.dst_address)
        if entry is None:
            self.dropped_no_route += 1
            return False
        # Next-hop routes hand the datagram to another router; direct
        # routes deliver to the destination host itself.
        target_address = entry.via if entry.via is not None else datagram.dst_address
        resolved = self.address_map.resolve(target_address)
        if resolved is None:
            self.dropped_no_route += 1
            return False
        _subnet, dst_host = resolved
        agent = self.interfaces[entry.subnet]
        hopped = L3Datagram(
            src_address=datagram.src_address,
            dst_address=datagram.dst_address,
            body=datagram.body,
            hops=datagram.hops + 1,
        )
        self.forwarded += 1
        agent.send_app(dst_host, hopped, flow_key=(datagram.src_address, datagram.dst_address))
        return True

    # ------------------------------------------------------------------
    # cross-subnet shortcut (Section 6.3, optional optimization)

    def egress_leg(self, dst_address: str) -> Optional[Tuple[int, ...]]:
        """The router-side tag route to the destination host.

        A source host that knows its own route to the border switch can
        splice this leg on (via :meth:`splice`) and send later packets
        straight across the inter-subnet shortcut, bypassing this
        router's CPU -- the optional optimization of Section 6.3.
        Returns None when the destination is unknown or the egress
        interface has no cached path yet.
        """
        resolved = self.address_map.resolve(dst_address)
        if resolved is None:
            return None
        dst_subnet, dst_host = resolved
        egress = self.interfaces.get(dst_subnet)
        if egress is None:
            return None
        leg = egress.path_table.lookup(dst_host, flow_key=None)
        if leg is None:
            return None
        return leg.tags

    @staticmethod
    def splice(leg1_tags: Tuple[int, ...], egress_port: int, leg2_tags: Tuple[int, ...]) -> Tuple[int, ...]:
        """Combine two subnet-local routes through a shortcut port.

        ``leg1_tags`` end at the border switch of subnet A; ``egress_port``
        is the border switch's port on the shortcut cable into subnet B;
        ``leg2_tags`` continue from the first switch of subnet B.
        """
        return tuple(leg1_tags) + (egress_port,) + tuple(leg2_tags)
