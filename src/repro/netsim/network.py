"""Wiring a :class:`~repro.topology.Topology` into a live emulated network.

The :class:`Network` instantiates one device per switch and per host
(through caller-supplied factories, so the same substrate emulates a
DumbNet fabric, a classic L2/STP fabric, or a mixed one), creates a
channel per cable and per host attachment, and exposes failure
injection keyed by topology coordinates.

Hosts have a single NIC, always port 1 on the host device.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Tuple

from ..topology.graph import Link, PortRef, Topology, TopologyError
from .channel import Channel
from .device import Device
from .events import EventLoop
from .trace import Tracer

__all__ = ["Network", "LinkSpec", "HOST_NIC_PORT"]

#: Hosts have one NIC; it is this port number on the host device.
HOST_NIC_PORT = 1

SwitchFactory = Callable[[str, int, "Network"], Device]
HostFactory = Callable[[str, "Network"], Device]


class LinkSpec:
    """Physical parameters applied to channels built by the network."""

    def __init__(
        self,
        bandwidth_bps: Optional[float] = 10e9,
        latency_s: float = 1e-6,
        jitter_s: float = 0.0,
        detection_delay_s: float = 100e-6,
    ) -> None:
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.jitter_s = jitter_s
        self.detection_delay_s = detection_delay_s


class Network:
    """A live emulated fabric: devices + channels + failure injection."""

    def __init__(
        self,
        topology: Topology,
        switch_factory: SwitchFactory,
        host_factory: HostFactory,
        link_spec: Optional[LinkSpec] = None,
        host_link_spec: Optional[LinkSpec] = None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.topology = topology
        self.loop = EventLoop()
        self.rng = random.Random(seed)
        self.tracer = tracer if tracer is not None else Tracer()
        self.link_spec = link_spec or LinkSpec()
        self.host_link_spec = host_link_spec or self.link_spec

        self.switches: Dict[str, Device] = {}
        self.hosts: Dict[str, Device] = {}
        self._link_channels: Dict[frozenset, Channel] = {}
        self._host_channels: Dict[str, Channel] = {}
        # Kept for hot-plug: a newcomer is built exactly like the rest.
        self._switch_factory = switch_factory
        self._host_factory = host_factory
        #: Observability hub (duck-typed ``repro.obs.FabricObs``), set by
        #: :meth:`attach_obs`.  Every channel wired while it is set --
        #: hot-plugged ones included -- records its queueing delay there.
        self.obs: Optional[Any] = None

        for sw in topology.switches:
            self.switches[sw] = switch_factory(sw, topology.num_ports(sw), self)
        for host in topology.hosts:
            self.hosts[host] = host_factory(host, self)
        for link in topology.links:
            self._wire_link(link)
        for host in topology.hosts:
            self._wire_host(host)

    # ------------------------------------------------------------------

    def _make_channel(self, spec: LinkSpec) -> Channel:
        return Channel(
            self.loop,
            bandwidth_bps=spec.bandwidth_bps,
            latency_s=spec.latency_s,
            jitter_s=spec.jitter_s,
            rng=self.rng,
            detection_delay_s=spec.detection_delay_s,
        )

    def _wire_link(self, link: Link) -> None:
        channel = self._make_channel(self.link_spec)
        self.switches[link.a.switch].attach(link.a.port, channel.ends[0])
        self.switches[link.b.switch].attach(link.b.port, channel.ends[1])
        self._link_channels[link.key()] = channel
        if self.obs is not None:
            channel._obs_wait = self.obs.link_queue_wait

    def _wire_host(self, host: str) -> None:
        ref = self.topology.host_port(host)
        channel = self._make_channel(self.host_link_spec)
        self.switches[ref.switch].attach(ref.port, channel.ends[0])
        self.hosts[host].attach(HOST_NIC_PORT, channel.ends[1])
        self._host_channels[host] = channel
        if self.obs is not None:
            channel._obs_wait = self.obs.nic_queue_wait

    def attach_obs(self, hub: Any) -> None:
        """Record per-frame queueing delay into ``hub``'s link / NIC
        histograms: the channels wired so far now, later ones as they
        are wired."""
        self.obs = hub
        for channel in self._link_channels.values():
            channel._obs_wait = hub.link_queue_wait
        for channel in self._host_channels.values():
            channel._obs_wait = hub.nic_queue_wait

    # ------------------------------------------------------------------
    # lookups

    def device(self, name: str) -> Device:
        dev = self.switches.get(name) or self.hosts.get(name)
        if dev is None:
            raise KeyError(f"no device named {name!r}")
        return dev

    def link_channel(self, sw_a: str, port_a: int, sw_b: str, port_b: int) -> Channel:
        key = frozenset((PortRef(sw_a, port_a), PortRef(sw_b, port_b)))
        try:
            return self._link_channels[key]
        except KeyError:
            raise TopologyError(
                f"no channel for {sw_a}-{port_a} <-> {sw_b}-{port_b}"
            ) from None

    def host_channel(self, host: str) -> Channel:
        return self._host_channels[host]

    # ------------------------------------------------------------------
    # hot-plug

    def hotplug_host(self, host: str, switch: str, port: int) -> Device:
        """Attach a new host, built by the network's host factory.

        Wires the NIC channel, registers the host in the topology, and
        raises the PHY on both ends -- the switch sees a port-up event
        exactly as if a cable had been plugged in, which is what lets
        the DumbNet controller discover the newcomer by reprobing.
        """
        self.topology.add_host(host, switch, port)
        device = self._host_factory(host, self)
        self.hosts[host] = device
        self._wire_host(host)
        # Announce the PHY coming up on the switch side.
        self.loop.schedule(
            self._host_channels[host].detection_delay_s,
            self.switches[switch].port_state_changed,
            port,
            True,
        )
        return device

    def hotplug_switch(
        self,
        switch: str,
        num_ports: int,
        links: Tuple[Tuple[int, str, int], ...],
    ) -> Device:
        """Rack a new switch, built by the network's switch factory.

        ``links`` lists the cables as ``(new switch port, existing
        switch, existing port)``.  Each cable raises the PHY on *both*
        ends after its detection delay: the existing switches originate
        the link-up notifications that trigger the controller's reprobe,
        which then escalates into incremental rediscovery of the
        newcomer (it appears as an unknown switch ID).
        """
        self.topology.add_switch(switch, num_ports)
        device = self._switch_factory(switch, num_ports, self)
        self.switches[switch] = device
        for new_port, peer_switch, peer_port in links:
            link = self.topology.add_link(switch, new_port, peer_switch, peer_port)
            self._wire_link(link)
            channel = self._link_channels[link.key()]
            self.loop.schedule(
                channel.detection_delay_s,
                self.switches[peer_switch].port_state_changed,
                peer_port,
                True,
            )
            self.loop.schedule(
                channel.detection_delay_s,
                device.port_state_changed,
                new_port,
                True,
            )
        return device

    # ------------------------------------------------------------------
    # failure injection

    def fail_link(self, sw_a: str, port_a: int, sw_b: str, port_b: int) -> None:
        self.link_channel(sw_a, port_a, sw_b, port_b).fail()

    def restore_link(self, sw_a: str, port_a: int, sw_b: str, port_b: int) -> None:
        self.link_channel(sw_a, port_a, sw_b, port_b).restore()

    def fail_switch(self, switch: str) -> None:
        self.switches[switch].power_off()

    def restore_switch(self, switch: str) -> None:
        self.switches[switch].power_on()

    def fail_random_link(self, rng: Optional[random.Random] = None) -> Link:
        """Cut a uniformly random *live* switch-switch link; returns which.

        Already-down links are excluded from the draw (cutting one
        would be a silent no-op, making seeded fault schedules inject
        fewer faults than they report).  Raises
        :class:`~repro.topology.graph.TopologyError` when every link is
        already down.
        """
        rng = rng or self.rng
        candidates = [
            link
            for link in self.topology.links
            if self._link_channels[link.key()].up
        ]
        if not candidates:
            raise TopologyError("no live switch-switch links left to fail")
        link = rng.choice(candidates)
        self.fail_link(link.a.switch, link.a.port, link.b.switch, link.b.port)
        return link

    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        return self.loop.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        return self.loop.run_until_idle(max_events=max_events)

    @property
    def now(self) -> float:
        return self.loop.now
