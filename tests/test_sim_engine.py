"""Unit tests for the DES engine."""

import pytest

from repro.sim import SimulationError, Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_at(10.0, order.append, "late")
    sim.call_at(1.0, order.append, "early")
    sim.call_at(5.0, order.append, "middle")
    sim.run()
    assert order == ["early", "middle", "late"]


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.call_at(3.0, order.append, tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_now_reflects_current_event_time():
    sim = Simulator()
    seen = []
    sim.call_at(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]


def test_call_in_is_relative():
    sim = Simulator()
    times = []
    def chain():
        times.append(sim.now)
        if sim.now < 4:
            sim.call_in(2.0, chain)
    sim.call_in(2.0, chain)
    sim.run()
    assert times == [2.0, 4.0]


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.call_at(100.0, fired.append, "x")
    sim.run(until=50.0)
    assert fired == []
    assert sim.now == 50.0
    sim.run()
    assert fired == ["x"]


def test_run_until_advances_time_with_empty_heap():
    sim = Simulator()
    sim.run(until=123.0)
    assert sim.now == 123.0


def test_scheduling_into_the_past_is_an_error():
    sim = Simulator()
    sim.call_at(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5.0, lambda: None)


def test_negative_delay_is_an_error():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.call_at(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.fired


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, lambda: sim.call_in(1.0, fired.append, sim.now + 1.0))
    sim.run()
    assert fired == [2.0]


def test_pending_counts_live_events():
    sim = Simulator()
    h1 = sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    assert sim.pending() == 2
    h1.cancel()
    assert sim.pending() == 1


# -- fast path: post / post_at ----------------------------------------------

def test_post_fires_in_time_order_with_args():
    sim = Simulator()
    order = []
    sim.post(10.0, order.append, "late")
    sim.post(1.0, order.append, "early")
    sim.post_at(5.0, order.append, "middle")
    sim.run()
    assert order == ["early", "middle", "late"]


def test_post_and_call_at_share_the_tie_break_sequence():
    # Same-time events must fire in scheduling order regardless of which
    # API scheduled them: the two entry shapes share one seq counter.
    sim = Simulator()
    order = []
    sim.post_at(5.0, order.append, "post-1")
    sim.call_at(5.0, order.append, "call-2")
    sim.post_at(5.0, order.append, "post-3")
    sim.call_at(5.0, order.append, "call-4")
    sim.run()
    assert order == ["post-1", "call-2", "post-3", "call-4"]


def test_post_into_the_past_is_an_error():
    sim = Simulator()
    sim.post(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_at(5.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.post(-1.0, lambda: None)


def test_post_counts_toward_pending():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    sim.call_in(2.0, lambda: None)
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0


def test_run_until_stops_before_posted_event():
    sim = Simulator()
    fired = []
    sim.post(10.0, fired.append, "x")
    sim.run(until=5.0)
    assert fired == [] and sim.now == 5.0 and sim.pending() == 1
    sim.run()
    assert fired == ["x"]


def test_next_event_time_and_bounded_run():
    sim = Simulator()
    assert sim.next_event_time() is None
    for i in range(8):
        sim.post_at(50.0 + i, lambda: None)
    sim.post_at(7.25, lambda: None)
    assert sim.next_event_time() == 7.25
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.next_event_time() == 7.25
    # a cancelled tombstone still counts: a conservative lower bound
    sim.call_at(6.0, lambda: None).cancel()
    assert sim.next_event_time() == 6.0


# -- pending() counter bookkeeping ------------------------------------------

def test_pending_is_consistent_through_cancel_and_run():
    sim = Simulator()
    handles = [sim.call_at(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending() == 10
    for h in handles[:4]:
        h.cancel()
    assert sim.pending() == 6
    sim.run(until=5.0)   # events at t=5,6,...,10 minus the cancelled ones
    assert sim.pending() == sum(
        1 for h in handles if not h.cancelled and not h.fired)
    sim.run()
    assert sim.pending() == 0


def test_double_cancel_counts_once():
    sim = Simulator()
    handle = sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.pending() == 1


def test_cancel_after_fire_is_a_noop():
    sim = Simulator()
    handle = sim.call_at(1.0, lambda: None)
    keep = handle
    sim.call_at(2.0, lambda: None)
    sim.run()
    assert keep.fired
    keep.cancel()            # must not corrupt the live counter
    assert not keep.cancelled
    assert sim.pending() == 0


# -- tombstone compaction ----------------------------------------------------

def test_compaction_bounds_the_heap_under_watchdog_load():
    from repro.sim.engine import _COMPACT_MIN_DEAD
    sim = Simulator()
    peak = [0]
    count = [0]

    def work():
        count[0] += 1
        watchdog = sim.call_in(1e9, lambda: None)
        watchdog.cancel()
        peak[0] = max(peak[0], len(sim._heap))
        if count[0] < 10_000:
            sim.call_in(1.0, work)

    sim.call_in(1.0, work)
    sim.run()
    # without compaction the heap would hold ~10k tombstones
    assert peak[0] <= 4 * _COMPACT_MIN_DEAD
    assert count[0] == 10_000


def test_compaction_preserves_event_order():
    from repro.sim.engine import _COMPACT_MIN_DEAD
    sim = Simulator()
    order = []
    doomed = [sim.call_at(500.0 + i, lambda: None)
              for i in range(2 * _COMPACT_MIN_DEAD)]
    sim.call_at(3.0, order.append, "c")
    sim.post_at(1.0, order.append, "a")
    sim.call_at(2.0, order.append, "b")
    for h in doomed:
        h.cancel()           # triggers in-place compaction
    assert sim.pending() == 3
    sim.run()
    assert order == ["a", "b", "c"]


def test_compaction_inside_run_keeps_loop_alive():
    from repro.sim.engine import _COMPACT_MIN_DEAD
    sim = Simulator()
    fired = []

    def arm_and_cancel():
        doomed = [sim.call_in(1e6, lambda: None)
                  for _ in range(2 * _COMPACT_MIN_DEAD)]
        for h in doomed:
            h.cancel()       # compacts self._heap while run() iterates it
        sim.post(1.0, fired.append, "after")

    sim.post(1.0, arm_and_cancel)
    sim.run()
    assert fired == ["after"]


# -- handle identity ---------------------------------------------------------

def test_retained_handle_is_never_recycled():
    sim = Simulator()
    kept = sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)   # discarded by the caller
    sim.run()
    assert kept.fired
    # schedule many more events; none may alias the retained handle
    fresh = [sim.call_at(10.0 + i, lambda: None) for i in range(8)]
    assert all(h is not kept for h in fresh)
    assert kept.fired        # untouched by later scheduling


# -- keyed scheduling --------------------------------------------------------

def test_keyed_events_sort_where_their_key_says():
    sim = Simulator()
    sim.keep_history()
    fired = []
    sim.post_at(5.0, fired.append, "a")
    a_seq = sim.seq_before(0.0, float("inf"))   # the number "a" was posted as
    reserved = sim.reserve_seq()                 # where a post here would sort
    sim.post_at(5.0, fired.append, "b")
    sim.call_keyed(5.0, a_seq + 0.5, 0, fired.append, "after a")
    sim.call_keyed(5.0, reserved, 0, fired.append, "reserved")
    sim.call_keyed(5.0, -1, 0, fired.append, "first")
    sim.run()
    assert fired == ["first", "a", "after a", "reserved", "b"]


def test_seq_before_reads_the_counter_at_a_place_in_firing_order():
    sim = Simulator()
    sim.keep_history()
    seen = {}

    def note(tag):
        seen[tag] = sim.firing_seq
        sim.post(1.0, lambda: None)              # posts one number

    sim.post_at(1.0, note, "x")
    sim.post_at(1.0, note, "y")
    sim.post_at(3.0, lambda: None)
    sim.run(until=2.0)
    x, y = seen["x"], seen["y"]
    # before x fired only the three setup posts existed; x then posted one
    assert sim.seq_before(1.0, x - 0.5) == 3
    assert sim.seq_before(1.0, x + 0.5) == 4
    assert sim.seq_before(1.0) == 5 == sim.seq_before(1.5)
    assert sim.fired_at(1.0) and not sim.fired_at(0.5)
    assert y == x + 1


def test_call_resolved_takes_its_key_when_it_first_pops():
    sim = Simulator()
    sim.keep_history()
    fired = []
    sim.post_at(2.0, fired.append, "early post")
    # ordered as if posted before the event at 1.0, which lies ahead
    handle = sim.call_resolved(2.0, lambda: sim.seq_before(0.5) + 0.5, 0,
                               fired.append, "resolved")
    sim.post_at(1.0, lambda: sim.post_at(2.0, fired.append, "late post"))
    sim.run()
    assert fired == ["early post", "resolved", "late post"]
    assert handle.fired
