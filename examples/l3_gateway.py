#!/usr/bin/env python3
"""A software layer-3 router across two DumbNet subnets (Section 6.3).

Builds two DumbNet subnets joined by a gateway node that runs one host
agent per subnet ("a router is simply a number of host agents running
on the same node"), routes datagrams between them with a longest-prefix
table, and then demonstrates the cross-subnet shortcut: splicing the
two subnet-local tag routes through the inter-subnet cable so later
packets bypass the router's CPU entirely.

Run:  python examples/l3_gateway.py
"""

from repro.core.fabric import DumbNetFabric
from repro.core.l3router import AddressMap, L3Datagram, SoftwareRouter
from repro.core.messages import AppData
from repro.topology import Topology


def build_two_subnets() -> Topology:
    topo = Topology()
    # Subnet A: two switches.
    topo.add_switch("A1", 16)
    topo.add_switch("A2", 16)
    topo.add_link("A1", 4, "A2", 4)
    topo.add_host("a-web", "A1", 1)
    topo.add_host("a-db", "A2", 1)
    topo.add_host("gw-a", "A2", 2)  # gateway NIC in subnet A
    # Subnet B: two switches.
    topo.add_switch("B1", 16)
    topo.add_switch("B2", 16)
    topo.add_link("B1", 4, "B2", 4)
    topo.add_host("b-cache", "B1", 1)
    topo.add_host("b-log", "B2", 1)
    topo.add_host("gw-b", "B1", 2)  # gateway NIC in subnet B
    # The physical shortcut cable between the subnets (Section 6.3:
    # "direct short-cuts between switch ports of different subnets").
    topo.add_link("A2", 8, "B1", 8)
    return topo


def main() -> None:
    topo = build_two_subnets()
    fabric = DumbNetFabric(topo, controller_host="a-web", seed=6)
    fabric.adopt_blueprint()
    fabric.warm_paths(
        [("a-db", "gw-a"), ("gw-a", "a-db"), ("gw-b", "b-cache"),
         ("gw-b", "b-log"), ("b-cache", "gw-b")]
    )

    amap = AddressMap()
    amap.bind("10.1.0.1", "10.1.", "a-web")
    amap.bind("10.1.0.2", "10.1.", "a-db")
    amap.bind("10.2.0.1", "10.2.", "b-cache")
    amap.bind("10.2.0.2", "10.2.", "b-log")

    gateway = SoftwareRouter("gw", amap)
    gateway.add_interface("10.1.", fabric.agents["gw-a"])
    gateway.add_interface("10.2.", fabric.agents["gw-b"])
    gateway.add_route("10.1.", "10.1.")
    gateway.add_route("10.2.", "10.2.")

    # Routed path: a-db -> gateway -> b-cache.
    datagram = L3Datagram("10.1.0.2", "10.2.0.1", body="routed hello")
    fabric.agents["a-db"].send_app("gw-a", datagram)
    fabric.run_until_idle()
    received = [
        d[2].body for d in fabric.agents["b-cache"].delivered
        if isinstance(d[2], L3Datagram)
    ]
    print(f"Routed delivery at b-cache: {received}")
    print(f"Gateway forwarded {gateway.forwarded} datagram(s)")
    assert received == ["routed hello"] and gateway.forwarded == 1

    # Shortcut path: splice a-db's route to the border switch A2 with
    # the gateway's cached leg from B1 to b-cache, through A2 port 8.
    leg2 = gateway.egress_leg("10.2.0.1")
    print(f"\nGateway egress leg to 10.2.0.1 (from B1): {leg2}")
    # a-db sits on A2 already, so leg1 is empty.
    spliced = SoftwareRouter.splice((), 8, leg2)
    print(f"Spliced tags a-db -> b-cache: {'-'.join(map(str, spliced))}-ø")
    before = gateway.forwarded
    fabric.agents["a-db"].send_tagged(spliced, AppData("shortcut hello"), 100, dst="b-cache")
    fabric.run_until_idle()
    shortcut = [
        d[2] for d in fabric.agents["b-cache"].delivered if d[2] == "shortcut hello"
    ]
    print(
        f"Shortcut delivery at b-cache: {shortcut} "
        f"(gateway CPU involved: {gateway.forwarded - before} times)"
    )
    assert shortcut == ["shortcut hello"] and gateway.forwarded == before


if __name__ == "__main__":
    main()
