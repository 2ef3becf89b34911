"""Doorbell: park a polling process instead of simulating empty polls.

A polling loop — an iPipe host runtime thread (§5.1), a DPDK poll-mode
worker — polls its queues, finds nothing, sleeps one fixed period and
polls again.  Simulated literally, every empty poll is an event, and on
a mostly idle server nearly every event is one.

Instead, a process whose poll came up empty yields a :class:`Doorbell`.
The doorbell wakes it at the first tick of its own poll lattice (park
time + period, + period, ..., built by the same float adds the loop
itself would make) at or after ``ready_at()``, the earliest time a poll
could succeed; when ``ready_at()`` is None the process stays parked with
no event scheduled.  Whoever may have moved that time earlier — a
producer, a stop request — calls :meth:`Doorbell.ring`.  A wake that
finds nothing (another poller won the work, a stall or a torn write got
in the way) parks again on the same lattice.

The wake also keeps the loop's place among the events due at the same
instant, so results match the loop's event for event.  The loop's poll
at tick T was a timeout armed by its poll at the previous tick; its heap
key is the sequence counter as it stood at that poll, which the kernel's
record of recently fired events gives (:meth:`~repro.sim.engine.
Simulator.seq_before`), and :meth:`~repro.sim.engine.Simulator.
call_keyed` queues the wake with it.  A poll that really ran reserves
its number (``reserve_seq``).  Wakes that tie — pollers on one lattice
whose polls no event separated — resume in the order their polls ran:
by their last ticks below each power of two at which float rounding
merged their lattices, then by how each joined.  A poller joins ahead
of the polls due at its park instant when the event that ended its work
was posted by the end of the previous tick, behind them otherwise; the
polls due at one instant count as one group there, and the record
reaches back 1,024 fired events.

Tie rule: work that becomes pollable exactly at a parked process's tick
is taken at that tick.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

from .engine import EventHandle, Simulator
from .process import Command, Process


def lattice_ceil(tick: float, period: float, target: float) -> float:
    """The first of ``tick``, ``tick + period``, ``(tick + period) +
    period``, ... that is ``>= target``, each step one float add.

    ``period`` must be a power of two: then every add that stays inside
    one binade (between consecutive powers of two) is exact, so a run of
    them is a single multiply-add, and only the add that crosses a power
    of two can round — that one is made as a real add.  The loop costs
    a few iterations per binade instead of one per tick.
    """
    while tick < target:
        top = math.ldexp(1.0, math.frexp(tick)[1])   # binade's upper end
        # jump strictly below both top and target; the float estimate of
        # the step count is off by less than one
        steps = int((min(target, top) - tick) / period) - 1
        if steps > 0:
            tick += steps * period
        tick += period
    return tick


def _floor_pow2(t: float) -> float:
    """The largest power of two <= ``t`` (``t`` > 0)."""
    return math.ldexp(0.5, math.frexp(t)[1])


class _Parked:
    """One polling process: its lattice and its pending wake-up."""

    __slots__ = ("process", "start", "join", "crossings", "order",
                 "tick", "armed", "armed_at", "armed_key", "wake")

    def __init__(self, process: Process, start: float, first: float,
                 join: Tuple):
        self.process = process
        #: origin of the lattice: the park poll, a period before its first
        #: tick
        self.start = start
        #: how it joined: ahead of or behind the polls due then (see
        #: :meth:`Doorbell.subscribe`), then when
        self.join = join
        #: (power of two, last tick below it), oldest first
        self.crossings: List[Tuple[float, float]] = []
        self.order: Tuple = (-1.0, ())   # (power of two, tie-break) cache
        #: earliest tick not yet known to be passed
        self.tick = first
        #: the tick armed by the latest real poll: when, at what time,
        #: with what heap key
        self.armed = first
        self.armed_at = 0.0
        self.armed_key = 0.0
        #: the scheduled wake-up; fired means the process is running
        self.wake: Optional[EventHandle] = None


class Doorbell(Command):
    """Parks polling processes until a poll could succeed (see module doc)."""

    def __init__(self, sim: Simulator, period: float,
                 ready_at: Callable[[], Optional[float]]):
        if period <= 0 or math.frexp(period)[0] != 0.5:
            raise ValueError(f"poll period must be a power of two: {period}")
        self.sim = sim
        self.period = period
        self.ready_at = ready_at
        self._parked: List[_Parked] = []
        sim.keep_history()

    def subscribe(self, process: Process) -> None:
        """Park ``process``: its poll at the current time found nothing."""
        sim = self.sim
        now = sim.now
        period = self.period
        entry = next((e for e in self._parked if e.process is process), None)
        wake = entry.wake if entry is not None else None
        if wake is None or not wake.fired or wake.when != now:
            # a fresh park, not a wake-up that found nothing
            if entry is not None:
                self._parked.remove(entry)
            # The event that ended its work fired ahead of the polls due
            # now if it was posted a period or more ago.  Joins ahead go
            # before every earlier join, joins behind after them.
            seq = sim.firing_seq
            if seq <= sim.seq_before(now - period):
                join = (-math.inf, -now, seq)
            else:
                join = (math.inf, now, seq)
            entry = _Parked(process, now, now + period, join)
            self._parked.append(entry)
        # the loop would arm its next poll right here
        entry.tick = entry.armed = now + period
        entry.armed_at = now
        entry.armed_key = sim.reserve_seq()
        entry.wake = None
        self._schedule(entry, self.ready_at())

    def ring(self) -> None:
        """The earliest successful poll may have moved earlier: pull
        every parked process's wake-up forward to match."""
        earliest = self.ready_at()
        if earliest is None:
            return
        for entry in self._parked:
            wake = entry.wake
            if wake is None or (not wake.fired and wake.when > earliest):
                self._schedule(entry, earliest)

    def _schedule(self, entry: _Parked, earliest: Optional[float]) -> None:
        if earliest is None:
            return
        sim = self.sim
        period = self.period
        # ticks before now have passed: the poll at each would have failed
        tick = entry.tick = lattice_ceil(entry.tick, period, sim.now)
        tick = lattice_ceil(tick, period, earliest)
        wake = entry.wake
        if wake is not None:
            if wake.when <= tick:
                return
            wake.cancel()
        resume = entry.process._resume
        order = self._order(entry, tick)
        if tick == entry.armed or self._prev(entry, tick) < sim.now:
            entry.wake = sim.call_keyed(tick, self._key(entry, tick), order,
                                        resume, None)
        else:       # the previous tick is still to come
            entry.wake = sim.call_resolved(
                tick, lambda: self._key(entry, tick), order, resume, None)

    def _prev(self, entry: _Parked, tick: float) -> float:
        """The lattice tick before ``tick`` (the park time for the first)."""
        if tick == entry.armed:
            return entry.armed_at
        prev = tick - self.period
        if math.frexp(prev)[1] != math.frexp(tick)[1]:
            # the add into this binade may have rounded: walk the lattice
            prev = lattice_ceil(entry.start, self.period,
                                tick - 1.5 * self.period)
        return prev

    def _key(self, entry: _Parked, tick: float) -> float:
        """Heap key of the poll at ``tick``: that of a timeout armed by
        the poll at the previous tick, wherever that poll stood among the
        events of its instant.  Only an instant with events fired at it
        needs the previous poll's own key, so the walk back stops at the
        first one without."""
        sim = self.sim
        pending = []
        while tick != entry.armed:
            prev = self._prev(entry, tick)
            if not sim.fired_at(prev):
                key = sim.seq_before(prev) + 0.5
                break
            pending.append((prev, self._order(entry, prev)))
            tick = prev
        else:
            key = entry.armed_key
        for prev, order in reversed(pending):
            key = sim.seq_before(prev, key, order) + 0.5
        return key

    def _order(self, entry: _Parked, tick: float) -> Tuple:
        """Tie-break for the poll at ``tick``: the last ticks below the
        powers of two the lattice crossed up to it, newest first, then
        how it joined."""
        top = _floor_pow2(tick)
        cached_top, order = entry.order
        if cached_top != top:
            crossings = entry.crossings
            newest = crossings[-1][0] if crossings else 0.0
            passed = []
            power = top
            while power > entry.start and power > newest:
                passed.append((power, lattice_ceil(
                    entry.start, self.period, power - self.period)))
                if power <= entry.start + self.period:
                    break           # below: the park itself is the tick
                power /= 2
            crossings.extend(reversed(passed))
            order = tuple(t for power, t in reversed(crossings)
                          if power <= top) + entry.join
            entry.order = (top, order)
        return order
