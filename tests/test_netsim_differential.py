"""Native event loop == seed native event loop, exactly.

``reference_netsim.py`` holds the seed ``EventLoop`` / ``Channel`` /
``Device``: one heap entry per timer, a ``_deliver`` -> ``receive`` ->
``_serve`` chain per hop.  Two properties replay one random script on
both and demand equal answers -- ``==`` on floats, no tolerance:

* timers: ``call_batch`` on the production loop against the same items
  sent one by one through ``call_after`` on the seed loop (each batch
  stably sorted by time, the order ``call_batch`` takes), with
  schedule / cancel / call_at / nested batches and nested runs issued
  from callbacks, and the drain split by ``until`` and ``max_events``;
* fabrics: small random switch / host graphs with unwired ports, probe
  and ping traffic armed as one batch, interleaved fail / restore /
  power-off / power-on, and the jitter / loss / duplication / extra
  delay knobs on and off.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_netsim as ref
from repro import netsim

# ----------------------------------------------------------------------
# timers

DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5]),
    st.floats(0.0, 4.0, allow_nan=False),
)
ACTION = st.one_of(
    st.tuples(st.just("after"), DELAYS),
    st.tuples(st.just("batch"), st.lists(DELAYS, max_size=6)),
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("at"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
    st.tuples(st.just("nested"), st.integers(0, 3)),
)
RUN = st.tuples(
    st.just("run"),
    st.one_of(st.none(), DELAYS),
    st.one_of(st.none(), st.integers(0, 6)),
)


@st.composite
def timer_scripts(draw):
    """(reactions, ops): event ``i`` performs ``reactions[i]`` when it
    fires; ``ops`` run at top level, between which state is compared."""
    reactions = draw(st.lists(st.lists(ACTION, max_size=3), max_size=40))
    ops = draw(st.lists(st.one_of(ACTION, RUN, RUN), min_size=1, max_size=25))
    return reactions, ops + [("run", None, None)]


class _Timers:
    def __init__(self, loop, batched, reactions):
        self.loop = loop
        self.batched = batched
        self.reactions = reactions
        self.fired = []
        self.handles = []
        self.ids = itertools.count()

    def fire(self, eid):
        self.fired.append((eid, self.loop.now))
        if eid < len(self.reactions):
            for action in self.reactions[eid]:
                self.apply(action)

    def apply(self, op):
        loop, kind = self.loop, op[0]
        if kind == "after":
            loop.call_after(op[1], self.fire, next(self.ids))
        elif kind == "batch":
            now = loop.now
            items = sorted(
                ((delay, self.fire, (next(self.ids),)) for delay in op[1]),
                key=lambda item: now + item[0],
            )
            if self.batched:
                loop.call_batch(items)
            else:
                for delay, callback, args in items:
                    loop.call_after(delay, callback, *args)
        elif kind == "schedule":
            self.handles.append(loop.schedule(op[1], self.fire, next(self.ids)))
        elif kind == "at":
            loop.call_at(loop.now + op[1], self.fire, next(self.ids))
        elif kind == "cancel" and self.handles:
            self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "nested":
            loop.run(max_events=op[1])
        elif kind == "run":
            until = None if op[1] is None else loop.now + op[1]
            loop.run(until=until, max_events=op[2])

    def state(self):
        loop = self.loop
        return self.fired, loop.now, loop.events_run, loop.pending


@settings(max_examples=200, deadline=None)
@given(timer_scripts())
def test_call_batch_equals_one_call_after_per_item(script):
    reactions, ops = script
    new = _Timers(netsim.EventLoop(), True, reactions)
    old = _Timers(ref.EventLoop(), False, reactions)
    for op in ops:
        new.apply(op)
        old.apply(op)
        assert new.state() == old.state(), op
    assert new.loop.pending == 0


# ----------------------------------------------------------------------
# fabrics

N_PORTS = 4


class Frame:
    """A source-routed frame: the switch pops ``tags[cursor]``."""

    __slots__ = ("uid", "kind", "tags", "cursor", "reply", "size_bytes")

    def __init__(self, uid, kind, tags, reply, size_bytes):
        self.uid = uid
        self.kind = kind
        self.tags = tags
        self.cursor = 0
        self.reply = reply
        self.size_bytes = size_bytes

    def fork(self):
        twin = Frame(self.uid, self.kind, self.tags, self.reply, self.size_bytes)
        twin.cursor = self.cursor
        return twin


def _classes(base):
    class Switch(base):
        def __init__(self, name, loop, proc_delay, log):
            super().__init__(name, loop, proc_delay=proc_delay)
            self.log = log
            self.dropped = 0

        def handle_packet(self, port, frame):
            if frame.cursor >= len(frame.tags):
                self.dropped += 1
                return
            out = frame.tags[frame.cursor]
            frame.cursor += 1
            if not self.send(out, frame):  # unwired, beyond the box, or down
                self.dropped += 1

        def handle_port_state(self, port, up):
            self.log.append((self.loop.now, self.name, "port", port, up))

    class Host(Switch):
        def __init__(self, name, loop, proc_delay, log, uids):
            super().__init__(name, loop, proc_delay, log)
            self.uids = uids

        def launch(self, kind, tags, reply):
            self.send(1, Frame(next(self.uids), kind, tags, reply, 64 if reply else 1500))

        def handle_packet(self, port, frame):
            if frame.cursor < len(frame.tags):
                self.dropped += 1
                return
            self.log.append((self.loop.now, self.name, frame.uid, frame.kind))
            if frame.kind == "ping" and frame.reply:
                self.launch("pong", frame.reply, ())

    return Switch, Host


CLASSES = {netsim: _classes(netsim.Device), ref: _classes(ref.Device)}

TAGS = st.lists(st.integers(1, N_PORTS + 1), max_size=5).map(tuple)


@st.composite
def fabric_scripts(draw):
    """(wiring, cables, proc delays, traffic, faults, run stops, seed).
    Wiring plugs each host into a random switch port and pairs some of
    the remaining ports; the rest stay unwired."""
    n_switches = draw(st.integers(1, 4))
    slots = draw(st.permutations(
        [("s", s, p) for s in range(n_switches) for p in range(1, N_PORTS + 1)]
    ))
    n_hosts = draw(st.integers(1, 3))
    rest = slots[n_hosts:]
    n_links = draw(st.integers(0, len(rest) // 2))
    knobs = draw(st.booleans())
    cable = st.fixed_dictionaries({
        "bandwidth_bps": st.sampled_from([None, 1e8, 1e9]),
        "latency_s": st.sampled_from([0.0, 1e-6, 5e-6]),
        "jitter_s": st.sampled_from([0.0, 2e-6] if knobs else [0.0]),
        "loss_rate": st.sampled_from([0.0, 0.2] if knobs else [0.0]),
        "duplicate_rate": st.sampled_from([0.0, 0.3] if knobs else [0.0]),
        "extra_latency_s": st.sampled_from([0.0, 3e-6] if knobs else [0.0]),
    })
    wiring = [(("h", i, 1), slots[i]) for i in range(n_hosts)]
    wiring += [(rest[2 * i], rest[2 * i + 1]) for i in range(n_links)]
    cables = [draw(cable) for _ in wiring]
    delays = draw(st.lists(
        st.sampled_from([0.0, 0.5e-6, 2e-6, 5e-6]),
        min_size=n_switches + n_hosts, max_size=n_switches + n_hosts,
    ))
    t = st.floats(0.0, 60e-6, allow_nan=False)
    traffic = draw(st.lists(st.tuples(
        t, st.integers(0, n_hosts - 1), st.sampled_from(["probe", "ping"]), TAGS, TAGS,
    ), max_size=40))
    # A flap is a fail and a restore ``dt`` later, with frames in flight.
    faults = draw(st.lists(st.tuples(
        t,
        st.sampled_from(["fail", "restore", "off", "on", "flap", "flap"]),
        st.integers(0, 100),
        st.floats(0.0, 10e-6, allow_nan=False),
    ), max_size=12))
    stops = sorted(draw(st.lists(t, max_size=3)))
    return wiring, cables, delays, traffic, faults, stops, draw(st.integers(0, 2**16))


class _Fabric:
    def __init__(self, mod, script):
        wiring, cables, delays, traffic, faults, _stops, seed = script
        Switch, Host = CLASSES[mod]
        self.loop = loop = mod.EventLoop()
        self.log = []
        uids = itertools.count()
        n_hosts = sum(1 for a, _b in wiring if a[0] == "h")
        n_switches = len(delays) - n_hosts
        nodes = {
            "s": [Switch(f"s{i}", loop, delays[i], self.log) for i in range(n_switches)],
            "h": [
                Host(f"h{i}", loop, delays[n_switches + i], self.log, uids)
                for i in range(n_hosts)
            ],
        }
        self.hosts = nodes["h"]
        self.devices = nodes["s"] + nodes["h"]
        self.channels = []
        for i, ends in enumerate(wiring):
            knobs = dict(cables[i])
            dup, extra = knobs.pop("duplicate_rate"), knobs.pop("extra_latency_s")
            channel = mod.Channel(loop, rng=random.Random(seed + i), **knobs)
            channel.duplicate_rate, channel.extra_latency_s = dup, extra
            for (kind, index, port), end in zip(ends, channel.ends):
                nodes[kind][index].attach(port, end)
            self.channels.append(channel)
        for at, kind, index, dt in faults:
            channel = self.channels[index % len(self.channels)]
            if kind in ("fail", "flap"):
                loop.schedule(at, channel.fail)
            if kind in ("restore", "flap"):
                loop.schedule(at + dt if kind == "flap" else at, channel.restore)
            if kind in ("off", "on"):
                device = self.devices[index % len(self.devices)]
                loop.schedule(at, device.power_off if kind == "off" else device.power_on)
        items = sorted(
            ((at, self.hosts[host].launch, (kind, tags, reply if kind == "ping" else ()))
             for at, host, kind, tags, reply in traffic),
            key=lambda item: item[0],
        )
        if mod is netsim:
            loop.call_batch(items)
        else:
            for delay, callback, args in items:
                loop.call_after(delay, callback, *args)

    def state(self):
        loop = self.loop
        return (
            self.log,
            loop.now,
            loop.events_run,
            loop.pending,
            [(c.frames_delivered, c.frames_dropped, c.frames_duplicated, c.up)
             for c in self.channels],
            [(d.packets_received, d.packets_sent, d.dropped, d.powered)
             for d in self.devices],
        )


@settings(max_examples=150, deadline=None)
@given(fabric_scripts())
def test_fabric_equals_the_seed_fabric(script):
    new, old = _Fabric(netsim, script), _Fabric(ref, script)
    assert new.state() == old.state()
    for stop in script[5] + [None]:
        new.loop.run(until=stop)
        old.loop.run(until=stop)
        assert new.state() == old.state(), stop
