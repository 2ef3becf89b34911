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

``pending()`` reads a live-event counter kept on push, fire and cancel,
so it is O(1).  ``docs/PERFORMANCE.md`` records the measurements behind
these choices and behind the mechanisms that were removed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: Virtual time is expressed in microseconds throughout the code base.
MICROSECOND = 1.0
MILLISECOND = 1_000.0
SECOND = 1_000_000.0

#: Compaction triggers once the heap holds at least this many tombstones
#: *and* they outnumber the live entries (dead fraction > 50%).
_COMPACT_MIN_DEAD = 64


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
        #: The run loop calls ``pulse.after_step(now)`` after each fired
        #: callback; the plane samples lazily when virtual time crosses a
        #: period boundary.  Sampling is passive — it schedules nothing —
        #: so instrumented and uninstrumented runs fire the exact same
        #: event sequence (the sanitizer digests prove it).
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
            while heap:
                if bounded and heap[0][0] > until:
                    break
                item = pop(heap)
                if len(item) == 4:          # post(): (when, seq, fn, args)
                    when, seq, fn, args = item
                else:                       # call_at(): (when, seq, handle)
                    when, seq, handle = item
                    if handle.cancelled:
                        self._dead -= 1
                        handle._fn = None
                        handle._args = ()
                        continue
                    handle.fired = True
                    fn = handle._fn
                    args = handle._args
                self._now = when
                self._live -= 1
                fn(*args)
                chk = self.checker
                if chk is not None:
                    chk.after_step(when, seq, fn)
                pl = self.pulse
                if pl is not None:
                    pl.after_step(when)
            if bounded and until > self._now:
                self._now = until
                pl = self.pulse
                if pl is not None:
                    pl.after_step(until)
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

    __slots__ = ("when", "_fn", "_args", "cancelled", "fired", "_sim")

    def __init__(self, when: float, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.when = when
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.fired = False
        self._sim: Optional[Simulator] = None

    def cancel(self) -> None:
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    def __lt__(self, other: "EventHandle") -> bool:  # heap tiebreak safety
        return id(self) < id(other)
