"""DumbNet core: the paper's contribution.

Stateless switches, host agents with two-level path caches, the
centralized controller, BFS topology discovery, two-stage failure
handling, path graphs, and the three extensions (flowlet TE, L3
routing, virtualization).
"""

from .packet import (
    DUMBNET_MTU,
    END_OF_PATH,
    ETHERTYPE_DUMBNET,
    ETHERTYPE_IPV4,
    ETHERTYPE_NOTIFY,
    ID_QUERY,
    Packet,
    PacketFormatError,
    PathTags,
    decode_tags,
    encode_tags,
)
from .switch import ALARM_SUPPRESS_SECONDS, NOTIFY_HOP_LIMIT, DumbSwitch
from .messages import (
    AppData,
    ControllerAnnounce,
    FailureGossip,
    PathReply,
    PathRequest,
    PortStateNotification,
    ProbeMessage,
    ProbeReply,
    SwitchIDReply,
    TopologyChange,
    TopologyPatch,
)
from .pathgraph import PathGraph, build_path_graph, detour_vertices
from .pathservice import (
    PathService,
    PathServiceStats,
    StablePathRng,
    stable_salt,
)
from .pathcache import CachedPath, PathTable, PathTableEntry, TopoCache
from .discovery import (
    DiscoveryError,
    DiscoveryResult,
    DiscoveryStats,
    OracleProbeTransport,
    ProbeOutcome,
    ProbeSpec,
    ProbeTransport,
    VerificationReport,
    discover,
    route_tags,
    verify_expected_topology,
)
from .host_agent import AgentConfig, EmulatedProbeTransport, HostAgent
from .controller import Controller, ControllerConfig
from .fabric import DumbNetFabric
from .verifier import PathVerifier, SwitchSetPolicy, VerificationPolicy
from .flowlet import FlowletRouter, install_flowlet_routing
from .l3router import AddressMap, L3Datagram, RouteEntry, SoftwareRouter
from .virtualization import Tenant, VirtualizationError, VirtualNetworkManager
from .ecn import EcnRerouter, EcnSwitch, install_ecn_rerouting
from .replication import ReplicatedControlPlane, ReplicationError
from .qos import PRIORITY_BULK, PRIORITY_CONTROL, PRIORITY_DATA, QosSwitch
from .phost import PHostEndpoint, TransferStats
from .telemetry import (
    FabricReport,
    StatsSwitch,
    SwitchStatsReply,
    TelemetryCollector,
)

__all__ = [
    # packet
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
    # switch
    "DumbSwitch",
    "NOTIFY_HOP_LIMIT",
    "ALARM_SUPPRESS_SECONDS",
    # messages
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
    # path graph + caches
    "PathGraph",
    "build_path_graph",
    "detour_vertices",
    "PathService",
    "PathServiceStats",
    "StablePathRng",
    "stable_salt",
    "TopoCache",
    "PathTable",
    "PathTableEntry",
    "CachedPath",
    # discovery
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
    "EmulatedProbeTransport",
    # agents
    "HostAgent",
    "AgentConfig",
    "Controller",
    "ControllerConfig",
    "DumbNetFabric",
    # extensions
    "PathVerifier",
    "VerificationPolicy",
    "SwitchSetPolicy",
    "FlowletRouter",
    "install_flowlet_routing",
    "SoftwareRouter",
    "AddressMap",
    "RouteEntry",
    "L3Datagram",
    "VirtualNetworkManager",
    "Tenant",
    "VirtualizationError",
    "EcnSwitch",
    "EcnRerouter",
    "install_ecn_rerouting",
    "ReplicatedControlPlane",
    "ReplicationError",
    "QosSwitch",
    "PRIORITY_CONTROL",
    "PRIORITY_DATA",
    "PRIORITY_BULK",
    "PHostEndpoint",
    "TransferStats",
    "StatsSwitch",
    "SwitchStatsReply",
    "TelemetryCollector",
    "FabricReport",
]
