#!/usr/bin/env python3
"""Network virtualization on DumbNet (Section 6.1).

Carves the paper's testbed into two tenants that share the physical
fabric but each see only their own slice: blue is pinned to spine0,
red to spine1.  Shows the per-tenant topology views, and demonstrates
the path verifier rejecting a malicious application route that tries
to cross the slice boundary.

Run:  python examples/multi_tenant.py
"""

from repro.core.pathcache import CachedPath
from repro.core.virtualization import VirtualNetworkManager
from repro.topology import paper_testbed


def main() -> None:
    physical = paper_testbed()
    manager = VirtualNetworkManager(physical)

    blue = manager.create_tenant(
        "blue", hosts=["h0_0", "h0_1", "h1_0", "h1_1"], switches=["spine0"]
    )
    red = manager.create_tenant(
        "red", hosts=["h3_0", "h3_1", "h4_0", "h4_1"], switches=["spine1"]
    )
    for tenant in (blue, red):
        print(
            f"Tenant {tenant.name}: hosts={sorted(tenant.hosts)}, "
            f"switches={sorted(tenant.switches)}, "
            f"connected={manager.tenant_connected(tenant.name)}"
        )
        assert manager.tenant_connected(tenant.name)

    print("\nTopology an application on h0_0 is shown:")
    view = manager.topology_for("h0_0")
    print(f"  {view.summary()}")
    for link in view.links:
        print(f"  {link}")
    # Blue's slice only: red's spine, leaves and hosts are not shown.
    assert set(view.switches) == blue.switches and set(view.hosts) == blue.hosts

    # A well-behaved blue route: leaf0 -> spine0 -> leaf1.
    good_switches = ["leaf0", "spine0", "leaf1"]
    good_tags = physical.encode_path("h0_0", good_switches, "h1_0")
    good = CachedPath.from_encoding(good_switches, good_tags)
    print(
        f"\nblue route via spine0 allowed: "
        f"{manager.path_allowed('h0_0', 'h0_0', 'h1_0', good)}"
    )
    assert manager.path_allowed("h0_0", "h0_0", "h1_0", good)

    # A malicious blue route that sneaks through red's spine.
    evil_switches = ["leaf0", "spine1", "leaf1"]
    evil_tags = physical.encode_path("h0_0", evil_switches, "h1_0")
    evil = CachedPath.from_encoding(evil_switches, evil_tags)
    print(
        f"blue route via spine1 allowed: "
        f"{manager.path_allowed('h0_0', 'h0_0', 'h1_0', evil)}  "
        "(rejected by the path verifier)"
    )
    assert not manager.path_allowed("h0_0", "h0_0", "h1_0", evil)

    # Cross-tenant traffic is rejected outright.
    cross_switches = ["leaf0", "spine0", "leaf3"]
    cross_tags = physical.encode_path("h0_0", cross_switches, "h3_0")
    cross = CachedPath.from_encoding(cross_switches, cross_tags)
    print(
        f"blue -> red host allowed:      "
        f"{manager.path_allowed('h0_0', 'h0_0', 'h3_0', cross)}"
    )
    assert not manager.path_allowed("h0_0", "h0_0", "h3_0", cross)


if __name__ == "__main__":
    main()
