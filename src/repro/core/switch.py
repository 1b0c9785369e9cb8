"""The DumbNet switch (Sections 3.1, 3.2, 4.2).

A :class:`DumbSwitch` does exactly three things, and nothing else:

1. **Tag forwarding.**  Pop the first tag of a DumbNet frame and push
   the frame out of that port.  No tables, no lookups, no addresses.
2. **ID query.**  A frame whose first tag is 0 gets its payload replaced
   by the switch's factory-burned unique ID, then continues along its
   remaining tags.
3. **Port monitoring.**  On a physical port state change, flood a
   hop-limited :class:`~repro.core.messages.PortStateNotification`
   out of every live port, rate-limited to one alarm per second per
   port to tame flapping links.

The class deliberately holds *no forwarding state*.  Its only mutable
attributes are the per-port alarm rate-limiter (soft state the paper
explicitly allows) and statistics counters used by the experiments.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..netsim.device import Device
from ..netsim.events import EventLoop
from .messages import PortStateNotification, SwitchIDReply
from .packet import (
    END_OF_PATH,
    ETHERNET_HEADER_BYTES,
    ETHERTYPE_DUMBNET,
    ETHERTYPE_NOTIFY,
    ID_QUERY,
    Packet,
)

__all__ = [
    "DumbSwitch",
    "NOTIFY_HOP_LIMIT",
    "ALARM_SUPPRESS_SECONDS",
    "RELAY_SEEN_SECONDS",
]

#: "a max of 5 hops is often enough" (Section 4.2).
NOTIFY_HOP_LIMIT = 5

#: "The switches suppress alarms for 1 second" (Section 4.2).
ALARM_SUPPRESS_SECONDS = 1.0

#: How long a relayed (origin, seq) alarm stays in the seen-cache.  An
#: alarm survives at most NOTIFY_HOP_LIMIT * (forward + wire) delays, far
#: under a second; a flap re-alarm always carries a fresh seq, so expiry
#: only needs to bound memory, not correctness.
RELAY_SEEN_SECONDS = 10.0

#: Seen-cache entries pruned once the table grows past this.
RELAY_SEEN_MAX_ENTRIES = 4096

#: Per-frame forwarding delay.  The FPGA prototype forwards a hop in
#: ~33 microseconds (100.6 us / 3 hops, Section 7.2.2); merchant silicon
#: is far faster.  We model a sub-microsecond pipeline delay.
FORWARD_DELAY_S = 0.5e-6


class DumbSwitch(Device):
    """A stateless tag-forwarding switch."""

    def __init__(
        self,
        name: str,
        num_ports: int,
        loop: EventLoop,
        tracer=None,
        notify_script_delay_s: float = 0.0,
    ) -> None:
        super().__init__(name, loop, proc_delay=FORWARD_DELAY_S)
        self.num_ports = num_ports
        self.tracer = tracer
        #: The paper's testbed generated notifications with "a script on
        #: Arista switch to monitor the port state", which polls far
        #: slower than the PHY ("can be sent even faster if it's done by
        #: hardware").  Setting this reproduces that deployment.
        self.notify_script_delay_s = notify_script_delay_s
        # Soft state only: alarm rate limiting and a notification
        # sequence counter.  Neither affects forwarding.
        self._last_alarm: Dict[int, float] = {}
        self._last_alarm_state: Dict[int, bool] = {}
        self._pending_alarm: Dict[int, bool] = {}
        self._notify_seq = 0
        #: Soft-state relay dedup: (origin switch, seq) -> expiry time.
        #: Without it any cyclic topology re-floods one alarm
        #: multiplicatively per hop up to the TTL (the paper explicitly
        #: allows soft state for alarm suppression).
        self._relay_seen: Dict[Tuple[str, int], float] = {}
        # Statistics (observability, not dataplane state).
        self.forwarded = 0
        self.dropped_bad_tag = 0
        self.dropped_dead_port = 0
        self.id_queries_answered = 0
        self.notifications_originated = 0
        self.notifications_relayed = 0
        self.notifications_suppressed = 0

    # ------------------------------------------------------------------
    # dataplane

    def handle_packet(self, port: int, packet: Packet) -> None:
        ethertype = packet.ethertype
        if ethertype == ETHERTYPE_NOTIFY:
            self._relay_notification(port, packet)
            return
        tags = packet.tags
        if ethertype != ETHERTYPE_DUMBNET or tags is None:
            # Not ours: a dumb switch has no tables to flood or learn
            # with, so anything tagless is silently dropped.
            self.dropped_bad_tag += 1
            return
        tag = tags.pop_or_none()
        if tag is None:
            # ø reached a switch: the path was one hop short of a host.
            self.dropped_bad_tag += 1
            return
        if tag == ID_QUERY:
            # Replace the payload with our identity and keep forwarding
            # along the remaining tags (Section 4.1).
            packet.payload = SwitchIDReply(switch_id=self.name, echo=packet.payload)
            packet.payload_bytes = max(packet.payload_bytes, 40)
            self.id_queries_answered += 1
            tag = tags.pop_or_none()
            if tag is None or tag == ID_QUERY:
                # ø right after the query, or two ID queries in a row
                # (which would self-overwrite): malformed.
                self.dropped_bad_tag += 1
                return
        if tag == END_OF_PATH or tag > self.num_ports:
            self.dropped_bad_tag += 1
            return
        # Frame size computed here (ethernet header + payload + remaining
        # tags + ø) rather than via Packet.size_bytes: the forwarding hot
        # path charges this once per hop.
        size_bits = 8.0 * (
            ETHERNET_HEADER_BYTES
            + packet.payload_bytes
            + len(tags._tags)
            - tags._cursor
            + 1
        )
        if not self.send(tag, packet, size_bits):
            self.dropped_dead_port += 1
            return
        self.forwarded += 1

    # ------------------------------------------------------------------
    # power (failure injection)

    def power_on(self) -> None:
        """A restarted switch boots with empty soft state.

        Alarm rate-limiter timestamps and the relay seen-cache from the
        previous life would otherwise suppress genuinely-new alarms.
        ``_notify_seq`` deliberately survives: host-side dedup keys on
        (switch, port, seq), so the counter must stay monotonic across
        reboots or post-restart alarms would collide with old ones.
        """
        self._last_alarm.clear()
        self._last_alarm_state.clear()
        self._pending_alarm.clear()
        self._relay_seen.clear()
        super().power_on()

    # ------------------------------------------------------------------
    # failure notification (stage 1, switch side)

    def handle_port_state(self, port: int, up: bool) -> None:
        if self.notify_script_delay_s > 0:
            self.loop.schedule(
                self.notify_script_delay_s, self._monitor_port_state, port, up
            )
            return
        self._monitor_port_state(port, up)

    def _monitor_port_state(self, port: int, up: bool) -> None:
        now = self.loop.now
        last = self._last_alarm.get(port)
        if last is not None and now - last < ALARM_SUPPRESS_SECONDS:
            # Rate-limited: remember the latest state and emit it once
            # the suppression window closes, so a flap that *ends* in a
            # different state is never silently lost.
            first_pending = port not in self._pending_alarm
            self._pending_alarm[port] = up
            if first_pending:
                self.loop.schedule(
                    last + ALARM_SUPPRESS_SECONDS - now, self._emit_pending, port
                )
            return
        self._emit_alarm(port, up)

    def _emit_pending(self, port: int) -> None:
        pending = self._pending_alarm.pop(port, None)
        if pending is None:
            return
        if self._last_alarm_state.get(port) == pending:
            return  # the flap settled back to the already-announced state
        self._emit_alarm(port, pending)

    def _emit_alarm(self, port: int, up: bool) -> None:
        now = self.loop.now
        self._last_alarm[port] = now
        self._last_alarm_state[port] = up
        self._notify_seq += 1
        note = PortStateNotification(
            switch=self.name, port=port, up=up, seq=self._notify_seq
        )
        packet = Packet(
            src=self.name,
            ethertype=ETHERTYPE_NOTIFY,
            payload=note,
            payload_bytes=note.wire_size,
            ttl=NOTIFY_HOP_LIMIT,
        )
        self.notifications_originated += 1
        # Our own alarm is "seen": a copy bouncing back around a cycle
        # must not be re-relayed by its originator.
        self._mark_relay_seen((self.name, self._notify_seq))
        if self.tracer is not None:
            self.tracer.record(now, "notify-origin", self.name, note)
        self._flood(packet, skip_port=None)

    def _relay_notification(self, in_port: int, packet: Packet) -> None:
        if packet.ttl <= 1:
            return
        note = packet.payload
        if isinstance(note, PortStateNotification):
            key = (note.switch, note.seq)
            if self._relay_key_seen(key):
                self.notifications_suppressed += 1
                return
            self._mark_relay_seen(key)
        relay = packet.fork()
        relay.ttl = packet.ttl - 1
        self.notifications_relayed += 1
        self._flood(relay, skip_port=in_port)

    def _relay_key_seen(self, key: Tuple[str, int]) -> bool:
        expiry = self._relay_seen.get(key)
        if expiry is None:
            return False
        if expiry < self.loop.now:
            del self._relay_seen[key]
            return False
        return True

    def _mark_relay_seen(self, key: Tuple[str, int]) -> None:
        now = self.loop.now
        if len(self._relay_seen) >= RELAY_SEEN_MAX_ENTRIES:
            self._relay_seen = {
                k: t for k, t in self._relay_seen.items() if t >= now
            }
        self._relay_seen[key] = now + RELAY_SEEN_SECONDS

    def _flood(self, packet: Packet, skip_port: Optional[int]) -> None:
        for port in range(1, self.num_ports + 1):
            if port == skip_port:
                continue
            end = self.ports.get(port)
            if end is None or not end.channel.up:
                continue
            self.send(port, packet.fork())
