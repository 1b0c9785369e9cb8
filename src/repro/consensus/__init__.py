"""Quorum replication substrate (the paper's ZooKeeper role)."""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".log": ("Cluster", "ReplicaNode", "LogEntry", "NotLeaderError", "QuorumLostError"),
    ".store": ("ReplicatedTopologyStore", "apply_change"),
})
