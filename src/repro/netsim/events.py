"""Discrete-event simulation core.

A minimal, fast event loop: a binary heap of timestamped entries and a
virtual clock.  Everything in the emulator -- packet transmission,
switch processing, timers, failure detection -- is an event on this
loop, so a whole fabric runs deterministically in one thread (the
paper's emulator used one thread per switch; a serialized event loop
gives the same semantics with reproducible interleavings).

Two scheduling flavours share one heap and one sequence counter, so
their relative ordering at equal timestamps is exactly scheduling
order:

* :meth:`EventLoop.schedule` returns an :class:`EventHandle` that
  supports :meth:`EventHandle.cancel`.
* :meth:`EventLoop.call_after` / :meth:`EventLoop.call_at` are the
  fire-and-forget fast path used by the per-frame hot code (channels,
  device service queues): no handle object is allocated, the heap entry
  is a plain ``(time, seq, callback, args)`` tuple.
  :meth:`EventLoop.call_batch` arms a time-ordered batch, heaping
  only its next item.

Cancellation is lazy: a cancelled handle is only marked dead, and the
heap skips it on pop.  So cancel-heavy workloads (protocol timers that
are armed and disarmed millions of times) do not pay O(log n) heap
surgery per cancel -- but dead entries must not accumulate without
bound either.  The loop keeps an exact count of dead entries and
compacts the heap in place once they outnumber the live ones (and
exceed :data:`COMPACT_MIN_DEAD`), which bounds heap size to O(live)
amortized.  Live bookkeeping is O(1): :attr:`EventLoop.pending` is a
maintained counter, not a scan.
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Collection, List, Optional, Tuple

__all__ = ["EventLoop", "EventHandle", "SimulationError", "COMPACT_MIN_DEAD"]

#: Compaction only triggers once at least this many cancelled entries
#: sit in the heap; below it, the scan costs more than it saves.
COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly."""


class EventHandle:
    """Returned by :meth:`EventLoop.schedule`; lets the caller cancel."""

    __slots__ = ("time", "seq", "callback", "args", "_loop")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Optional[Callable[..., None]],
        args: Tuple[Any, ...],
        loop: "EventLoop",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._loop = loop

    def cancel(self) -> None:
        """Cancelling marks the entry dead; the heap skips it on pop."""
        if self.callback is None:  # already fired or cancelled
            return
        self.callback = None
        self.args = ()
        loop = self._loop
        loop._live -= 1
        loop._dead += 1
        if loop._dead >= COMPACT_MIN_DEAD and loop._dead * 2 > len(loop._heap):
            loop._compact()


class EventLoop:
    """A virtual-time event scheduler.

    Events scheduled at equal times fire in scheduling order, which makes
    runs reproducible regardless of dictionary ordering elsewhere.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # Entries are (time, seq, x, args) where args is None when x is
        # an EventHandle and a (possibly empty) tuple when x is a bare
        # callback.  seq is unique, so comparisons never reach x.
        self._heap: List[Tuple[float, int, Any, Optional[Tuple[Any, ...]]]] = []
        self._seq = 0
        self._events_run = 0
        self._live = 0  # scheduled, not yet fired, not cancelled
        self._dead = 0  # cancelled handle entries still in the heap

    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(self.now + delay, seq, callback, args, self)
        heappush(self._heap, (handle.time, seq, handle, None))
        self._live += 1
        return handle

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no cancellation.

        The per-frame hot path (channel delivery, device service) goes
        through here; it skips the handle allocation entirely.  Ordering
        relative to ``schedule`` is preserved -- both draw from the same
        sequence counter.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, callback, args))
        self._live += 1

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget: run ``callback(*args)`` at an absolute
        simulated time (see :meth:`call_after`).

        The stored deadline is exactly ``time``: ``now + (time - now)``
        need not equal ``time`` under floating point (``now=0.1,
        time=0.3`` rounds up by one ulp), so going through a delay could
        reorder events aimed at the same instant.
        """
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past (time={time})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, callback, args))
        self._live += 1

    def call_batch(self, items: Collection[Tuple[float, Callable[..., None], Tuple[Any, ...]]]) -> None:
        """``call_after(delay, callback, *args)`` per item, in order, with
        the same seqs and ``pending`` -- but only the batch's head sits
        in the heap, and the batch is read one item at a time.

        ``items`` is sized and re-iterable, and ordered by ``now +
        delay``: items at the same time fire in the given order.  One
        pass checks that order (and that no delay is negative) without
        keeping anything, and a bad batch raises before anything is
        scheduled.  Then the batch draws ``len(items)`` consecutive
        seqs; firing the head pushes the next item *before* its callback
        runs, so every unfired item is >= the head and any item that
        could be the minimum at a pop (nested ``run`` included) is in
        the heap.
        """
        now = last = self.now
        for delay, _callback, _args in items:
            time = now + delay
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            if time < last:
                raise SimulationError(f"batch out of time order (delay={delay})")
            last = time
        count = len(items)
        if not count:
            return
        seq, heap, pull = self._seq, self._heap, iter(items).__next__
        end = self._seq = seq + count
        self._live += count

        def push(seq: int) -> None:
            delay, callback, args = pull()
            heappush(heap, (now + delay, seq, fire, (seq, callback, args)))

        def fire(seq, callback, args):
            if seq + 1 < end:
                push(seq + 1)
            callback(*args)

        push(seq)

    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events still queued.  O(1)."""
        return self._live

    @property
    def dead_entries(self) -> int:
        """Cancelled entries awaiting lazy removal from the heap.  O(1)."""
        return self._dead

    @property
    def events_run(self) -> int:
        return self._events_run

    def _compact(self) -> None:
        """Drop cancelled handle entries and restore the heap invariant.

        In place (slice assignment), so a ``run`` loop holding a local
        reference to the heap keeps seeing the same list object.
        """
        heap = self._heap
        heap[:] = [
            entry
            for entry in heap
            if entry[3] is not None or entry[2].callback is not None
        ]
        heapify(heap)
        self._dead = 0

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the heap.

        Stops when the heap is empty, when the next event would fire
        after ``until``, or after ``max_events`` events.  Returns the
        number of events executed by this call.  When stopped by
        ``until``, the clock is advanced exactly to ``until`` so a
        subsequent ``run`` continues seamlessly.
        """
        # Pause cyclic gc while draining: the per-event garbage (args
        # tuples, packets, heap entries) is acyclic and dies by
        # refcount, but the collector would still traverse the live
        # heap on every generation sweep.  Restored on exit, including
        # on exceptions; nested runs keep it off until the outermost
        # one returns.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(self._heap, until, max_events)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, heap, until, max_events):
        # Hot loop.  Locals only; callbacks may push into `heap` (the
        # same list object -- both call_after and _compact keep it)
        # while we drain.  The live/events_run counters are applied in
        # bulk on exit (the finally also covers exceptions from
        # callbacks); EventHandle.cancel adjusts _live independently,
        # so its deltas compose with ours.
        executed = 0
        limit = float("inf") if max_events is None else max_events
        try:
            if until is None:
                while heap and executed < limit:
                    time, _seq, x, args = heappop(heap)
                    if args is None:
                        callback = x.callback
                        if callback is None:  # cancelled, skipped lazily
                            self._dead -= 1
                            continue
                        args = x.args
                        x.callback = None  # fired; cannot be cancelled now
                        x.args = ()
                    else:
                        callback = x
                    self.now = time
                    executed += 1
                    callback(*args)
            else:
                while heap and executed < limit:
                    time = heap[0][0]
                    if time > until:
                        self.now = until
                        return executed
                    _time, _seq, x, args = heappop(heap)
                    if args is None:
                        callback = x.callback
                        if callback is None:
                            self._dead -= 1
                            continue
                        args = x.args
                        x.callback = None
                        x.args = ()
                    else:
                        callback = x
                    self.now = time
                    executed += 1
                    callback(*args)
        finally:
            self._live -= executed
            self._events_run += executed
        # Advance the clock to `until` only when nothing is left before
        # it -- a run stopped by max_events must not skip the clock past
        # still-queued events.
        if until is not None and not heap and until > self.now:
            self.now = until
        return executed

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Drain everything; guard against runaway simulations.

        Raises :class:`SimulationError` if *any* live event remains
        after ``max_events`` -- cancelled leftovers in the heap do not
        count as quiescence failures (they are dead weight, not work).
        """
        executed = self.run(max_events=max_events)
        if self._live:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events "
                f"({self._live} live events still pending)"
            )
        return executed
