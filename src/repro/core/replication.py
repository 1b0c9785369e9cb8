"""Controller replication and failover (Sections 4.1-4.2).

"We use replication to tolerate controller failures.  The controller
replicas use Apache ZooKeeper to keep a consistency view of the network
topology and serve host requests in the same way."

:class:`ReplicatedControlPlane` glues the pieces together on a live
fabric (``DumbNetFabric(..., standbys=...)`` builds one as
``fabric.plane``): the primary :class:`~repro.core.controller.
Controller` logs every topology change into a
:class:`~repro.consensus.store.ReplicatedTopologyStore`; standby
controllers (ordinary hosts promoted on demand) hold consistent view
replicas.  When the primary dies,
:meth:`fail_primary` promotes a standby: it adopts the replicated view,
re-announces itself, and hosts transparently re-target their queries.
"""

from __future__ import annotations

from typing import List, Sequence

from ..consensus.store import ReplicatedTopologyStore
from ..netsim.network import Network
from .controller import Controller

__all__ = ["ReplicatedControlPlane", "ReplicationError"]


class ReplicationError(RuntimeError):
    """Failover impossible: no live standby or no quorum."""


class ReplicatedControlPlane:
    """Primary controller + standby replicas over a quorum store."""

    def __init__(
        self,
        network: Network,
        primary: Controller,
        standbys: Sequence[Controller],
    ) -> None:
        """``standbys`` must be :class:`Controller` instances (a
        :class:`~repro.core.fabric.DumbNetFabric` builds one for each
        host named in its ``standbys``): promotion installs a view and
        starts answering path queries, which a plain
        :class:`~repro.core.host_agent.HostAgent` cannot do."""
        if primary.view is None:
            raise ReplicationError("primary has no view; bootstrap first")
        for standby in standbys:
            if not isinstance(standby, Controller):
                name = getattr(standby, "name", standby)
                raise ReplicationError(
                    f"standby {name!r} must be a Controller instance, "
                    f"got {type(standby).__name__}"
                )
        self.network = network
        self.primary = primary
        self.standbys: List[Controller] = list(standbys)
        names = [primary.name] + [s.name for s in self.standbys]
        self.store = ReplicatedTopologyStore(names, primary.view)
        primary.replicator = self.store

    # ------------------------------------------------------------------

    def fail_primary(self) -> Controller:
        """Kill the primary host and promote a standby."""
        dead = self.primary
        self.network.hosts[dead.name].power_off()
        promoted_name = self.store.fail_primary()
        if promoted_name is None:
            raise ReplicationError("no replica could win the election")
        return self._promote(promoted_name)

    def _promote(self, name: str) -> Controller:
        candidates = [s for s in self.standbys if s.name == name]
        if not candidates:
            raise ReplicationError(f"promoted replica {name!r} is not a standby")
        new_primary = candidates[0]
        # Adopt the replicated, quorum-committed view minus the dead
        # primary's host entry.
        view = self.store.view_of(name).copy()
        old = self.primary
        if view.has_host(old.name):
            view.remove_host(old.name)
        new_primary.adopt_view(view)
        new_primary.replicator = self.store
        self.standbys = [s for s in self.standbys if s.name != name]
        old.replicator = None
        self.primary = new_primary
        # Tell every host where the controller now lives.
        new_primary.announce_all()
        # The adopted replica view may miss links whose reprobe
        # sessions died with the old primary; verify every unknown
        # port now rather than waiting for news that will never come.
        new_primary.reprobe_unknown_ports()
        return new_primary
