"""Discrete-event simulation engine.

The engine keeps virtual time in microseconds and one binary heap of
pending events.  Everything in the reproduction — NIC cores, DMA engines,
links, host threads — is either a scheduled callback or a generator-based
:class:`~repro.sim.process.Process` driven by this engine.

The kernel is a time source, a heap, and one run loop.  Ties break on
(time, sequence number), so two runs with the same seeds produce
identical traces.

Heap entries come in two shapes that share one sequence counter, so
mixing the two scheduling APIs keeps the global (time, seq) order:

* ``(when, seq, fn, args)`` from :meth:`Simulator.post` /
  :meth:`Simulator.post_at` — no :class:`EventHandle` at all, the right
  call for the many events (process resumes, timeouts, packet
  deliveries) that are never cancelled;
* ``(when, seq, handle)`` from :meth:`Simulator.call_at` /
  :meth:`Simulator.call_in` — the handle can be cancelled.  A cancelled
  handle stays in the heap as a *tombstone* and is skipped when popped;
  once tombstones outnumber live entries the heap is compacted in place.

:meth:`Simulator.call_keyed` puts a handle entry at a chosen place among
the events of its instant: a half-integer key sorts right after the
event with that sequence number, and :meth:`Simulator.seq_before` reads
the counter as it stood at any place in the recent firing order.
Parked pollers (:mod:`repro.sim.doorbell`) wake this way exactly where
their skipped poll timeouts would have fired.

``pending()`` reads a live-event counter kept on push, fire and cancel,
so it is O(1).  ``docs/PERFORMANCE.md`` records the measurements behind
these choices and behind the mechanisms that were removed.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

#: Virtual time is expressed in microseconds throughout the code base.
MICROSECOND = 1.0
MILLISECOND = 1_000.0
SECOND = 1_000_000.0

#: Compaction triggers once the heap holds at least this many tombstones
#: *and* they outnumber the live entries (dead fraction > 50%).
_COMPACT_MIN_DEAD = 64

#: How many recently fired events :meth:`Simulator.seq_before` can look
#: back over.
_HISTORY = 1024


class SimulationError(RuntimeError):
    """Raised for illegal interactions with the simulation kernel."""


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> handle = sim.call_at(5.0, fired.append, "a")
    >>> _ = sim.call_in(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple] = []
        self._seq: int = 0
        self._running = False
        self._live: int = 0      # scheduled, not yet fired or cancelled
        self._dead: int = 0      # cancelled tombstones still in the heap
        #: sort key of the event being fired
        self.firing_seq: float = 0
        #: (time, key, rank, counter before firing) of recently fired
        #: events, in firing order, once :meth:`keep_history` asked for
        #: it; see :meth:`seq_before`
        self._fired: Optional[Deque[Tuple]] = None
        #: observability hooks, set by repro.obs.TracePlane.  Components
        #: check these per event and do nothing while they are None, so
        #: an uninstrumented run costs one attribute read per check.
        self.tracer = None
        self.metrics = None
        #: correctness hook, set by repro.check.CheckPlane.  The kernel
        #: calls ``checker.on_schedule(when, seq, fn)`` when an event is
        #: pushed and ``checker.after_step(when, seq, fn)`` after each
        #: fired callback — the determinism sanitizer's step digest and
        #: the invariant monitors both hang off this.  While None (the
        #: default) the run loop pays one attribute read per event.
        self.checker = None
        #: periodic-sampling hook, set by repro.obs.pulse.PulsePlane.
        #: Before firing the first event past ``pulse.next_us`` the run
        #: loop moves the clock to that boundary and calls
        #: ``pulse.sample()``, once per boundary crossed; a bounded run
        #: also samples the boundaries up to ``until`` before returning.
        #: A sample therefore sees the state as of its boundary no matter
        #: how sparse the events around it are.  Probes schedule nothing,
        #: so sampled and unsampled runs fire the same event sequence
        #: (the sanitizer digests prove it).
        self.pulse = None

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    # -- fast path: handle-free scheduling -----------------------------
    def post_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at ``when`` with no cancellation handle.

        Roughly twice as fast as :meth:`call_at`; use it whenever the
        event is never cancelled and the handle would be discarded.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now {self._now}"
            )
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        chk = self.checker
        if chk is not None:
            chk.on_schedule(when, self._seq, fn)

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` µs; no handle (fast path)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.post_at(self._now + delay, fn, *args)

    # -- cancellable scheduling ----------------------------------------
    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> "EventHandle":
        """Schedule ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now {self._now}"
            )
        handle = EventHandle(when, fn, args)
        handle._sim = self
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, (when, self._seq, handle))
        chk = self.checker
        if chk is not None:
            chk.on_schedule(when, self._seq, fn)
        return handle

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> "EventHandle":
        """Schedule ``fn(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, fn, *args)

    # -- keyed scheduling: a place among same-time events ---------------
    def call_keyed(self, when: float, key: float, rank: Any,
                   fn: Callable[..., Any], *args: Any) -> "EventHandle":
        """Like :meth:`call_at`, but the event sorts among the events at
        ``when`` by ``key`` instead of a fresh sequence number: ``s + 0.5``
        puts it right after the event numbered ``s`` (see
        :meth:`seq_before`), :meth:`reserve_seq` where an event posted
        then would be.  Events with equal keys sort by ``rank``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now {self._now}"
            )
        handle = EventHandle(when, fn, args)
        handle._sim = self
        handle.rank = rank
        self._live += 1
        heapq.heappush(self._heap, (when, key, handle))
        chk = self.checker
        if chk is not None:
            chk.on_schedule(when, key, fn)
        return handle

    def call_resolved(self, when: float, resolve: Callable[[], float],
                      rank: Any, fn: Callable[..., Any],
                      *args: Any) -> "EventHandle":
        """:meth:`call_keyed` with a key only known later: the entry pops
        first at ``when`` and is re-queued with the key ``resolve()``
        returns then."""
        handle = self.call_keyed(when, -1, rank, fn, *args)
        handle.resolve = resolve
        return handle

    def reserve_seq(self) -> int:
        """Take the next sequence number without scheduling anything: a
        key for :meth:`call_keyed` that sorts exactly where an event
        posted now would."""
        self._seq += 1
        return self._seq

    def keep_history(self) -> None:
        """Start recording fired events for :meth:`seq_before`."""
        if self._fired is None:
            self._fired = deque(maxlen=_HISTORY)

    def seq_before(self, t: float, key: float = float("inf"),
                   rank: Any = None) -> int:
        """The sequence counter at place ``(t, key, rank)`` of the firing
        order: the last number posted by the events fired before it.
        The place may not lie ahead of the event being fired; the default
        key means the end of time ``t``.  Needs :meth:`keep_history`."""
        counter = self._seq
        for when, fired_key, fired_rank, before in reversed(self._fired):
            if when < t or (when == t and (
                    fired_key < key or (fired_key == key
                                        and fired_rank <= rank))):
                break
            counter = before
        return counter

    def fired_at(self, t: float) -> bool:
        """Whether a recently fired event fired at exactly time ``t``."""
        for when, _, _, _ in reversed(self._fired):
            if when <= t:
                return when == t
        return False

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest queued entry, or None when empty.

        Cancelled tombstones are counted — the result is a conservative
        lower bound on the next *live* event, which is exactly what the
        shard executor's lookahead computation needs.
        """
        heap = self._heap
        return heap[0][0] if heap else None

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue.

        Runs until the queue is empty, or until virtual time would pass
        ``until`` (in which case time is advanced exactly to ``until``).
        Returns the final virtual time.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        bounded = until is not None
        # _compact() mutates self._heap in place, so this alias stays
        # valid across a compaction triggered from inside a callback.
        heap = self._heap
        pop = heapq.heappop
        try:
            while True:
                if not heap or (bounded and heap[0][0] > until):
                    # out of events for this run: a bounded run still
                    # owes the pulse its boundaries up to ``until``
                    pl = self.pulse
                    if bounded and pl is not None and pl.next_us <= until:
                        self._now = pl.next_us
                        pl.sample()
                        continue
                    break
                pl = self.pulse
                if pl is not None and heap[0][0] > pl.next_us:
                    self._now = pl.next_us
                    pl.sample()
                    continue
                item = pop(heap)
                if len(item) == 4:          # post(): (when, seq, fn, args)
                    when, seq, fn, args = item
                    rank = None
                else:                       # call_at(): (when, seq, handle)
                    when, seq, handle = item
                    if handle.cancelled:
                        self._dead -= 1
                        handle._fn = None
                        handle._args = ()
                        continue
                    if handle.resolve is not None:
                        # first pop: re-queue with the key known by now
                        key = handle.resolve()
                        handle.resolve = None
                        heapq.heappush(heap, (when, key, handle))
                        continue
                    handle.fired = True
                    fn = handle._fn
                    args = handle._args
                    rank = handle.rank
                fired = self._fired
                if fired is not None:
                    fired.append((when, seq, rank, self._seq))
                self._now = when
                self._live -= 1
                self.firing_seq = seq
                fn(*args)
                chk = self.checker
                if chk is not None:
                    chk.after_step(when, seq, fn)
            if bounded and until > self._now:
                self._now = until
        finally:
            self._running = False
        return self._now

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    # -- lazy-cancel bookkeeping ---------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`EventHandle.cancel`; maybe compact the heap."""
        self._live -= 1
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled tombstones and re-heapify, in place."""
        self._heap[:] = [entry for entry in self._heap
                         if len(entry) == 4 or not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0


class EventHandle:
    """A scheduled callback that can be cancelled before it fires."""

    __slots__ = ("when", "_fn", "_args", "cancelled", "fired", "_sim",
                 "resolve", "rank")

    def __init__(self, when: float, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.when = when
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.fired = False
        self._sim: Optional[Simulator] = None
        self.resolve: Optional[Callable[[], float]] = None
        #: orders handles that share (time, key): only keyed ones can
        self.rank = 0.0

    def cancel(self) -> None:
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    def __lt__(self, other: "EventHandle") -> bool:
        return self.rank < other.rank
