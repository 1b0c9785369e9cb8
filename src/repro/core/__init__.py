"""DumbNet core: the paper's contribution.

Stateless switches, host agents with two-level path caches, the
centralized controller, BFS topology discovery, two-stage failure
handling, path graphs, and the three extensions (flowlet TE, L3
routing, virtualization).
"""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".packet": (
        "Packet",
        "PathTags",
        "PacketFormatError",
        "encode_tags",
        "decode_tags",
        "ETHERTYPE_DUMBNET",
        "ETHERTYPE_IPV4",
        "ETHERTYPE_NOTIFY",
        "END_OF_PATH",
        "ID_QUERY",
        "DUMBNET_MTU",
    ),
    ".switch": ("DumbSwitch", "NOTIFY_HOP_LIMIT", "ALARM_SUPPRESS_SECONDS"),
    ".messages": (
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
    ),
    ".pathgraph": ("PathGraph", "build_path_graph", "detour_vertices"),
    ".pathservice": ("PathService", "PathServiceStats", "StablePathRng", "stable_salt"),
    ".pathcache": ("TopoCache", "PathTable", "PathTableEntry", "CachedPath"),
    ".discovery": (
        "discover",
        "verify_expected_topology",
        "route_tags",
        "DiscoveryResult",
        "DiscoveryStats",
        "DiscoveryError",
        "VerificationReport",
        "ProbeSpec",
        "ProbeOutcome",
        "ProbeTransport",
        "OracleProbeTransport",
    ),
    ".host_agent": ("EmulatedProbeTransport", "HostAgent"),
    ".controller": ("Controller", "ControllerConfig"),
    ".fabric": ("DumbNetFabric",),
    # extensions
    ".verifier": ("PathVerifier", "VerificationPolicy", "SwitchSetPolicy"),
    ".flowlet": ("FlowletRouter", "install_flowlet_routing"),
    ".l3router": ("SoftwareRouter", "AddressMap", "RouteEntry", "L3Datagram"),
    ".virtualization": ("VirtualNetworkManager", "Tenant", "VirtualizationError"),
    ".ecn": ("EcnSwitch", "EcnRerouter", "install_ecn_rerouting"),
    ".replication": ("ReplicatedControlPlane", "ReplicationError"),
    ".qos": ("QosSwitch", "PRIORITY_CONTROL", "PRIORITY_DATA", "PRIORITY_BULK"),
    ".phost": ("PHostEndpoint", "TransferStats"),
    ".telemetry": ("StatsSwitch", "SwitchStatsReply", "TelemetryCollector", "FabricReport"),
})
