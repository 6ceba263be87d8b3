"""Regressions for the event-loop fast paths.

Covers the hot-path work on :mod:`repro.sim.engine`: the shared pop
loop (``run``/``run_one`` both police monotonic time), the O(1)
``pending_events`` counter, and heap compaction — cancelled ``AnyOf``
losers must not accumulate without bound.
"""

import pytest

from repro.sim.engine import AnyOf, Delay, Event, SimulationError, Simulator, Wakeup


def test_run_one_raises_on_backwards_time():
    # run() has always policed monotonic time; run_one() shares the same
    # pop loop now and must too
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.now = 50  # simulate a corrupted clock
    with pytest.raises(SimulationError, match="time went backwards"):
        sim.run_one()


def test_run_raises_on_backwards_time():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.now = 50
    with pytest.raises(SimulationError, match="time went backwards"):
        sim.run()


def test_cancelled_anyof_losers_do_not_accumulate():
    # each iteration races a short delay against a very long one; the
    # loser is cancelled but its heap entry can only be dropped lazily.
    # Compaction must keep the heap near the live-timer count instead
    # of letting ~n_iter stale entries pile up.
    sim = Simulator()
    n_iter = 1000

    def racer():
        for _ in range(n_iter):
            wakeup = yield AnyOf([Delay(1), Delay(10**9)])
            assert isinstance(wakeup, Wakeup) and wakeup.index == 0

    sim.spawn(racer())
    sim.run()
    assert sim.pending_events == 0
    # far smaller than n_iter: bounded by the compaction threshold plus
    # the handful of live timers present at any instant
    assert len(sim._heap) <= 2 * Simulator._COMPACT_MIN


def test_compaction_preserves_event_order():
    # force repeated compactions while interleaved live timers remain
    # queued; firing order must be untouched
    sim = Simulator()
    fired = []
    keep = [sim.schedule(100 + i, lambda i=i: fired.append(i)) for i in range(10)]
    for round_ in range(5):
        doomed = [sim.schedule(50, lambda: fired.append("doomed")) for _ in range(40)]
        for t in doomed:
            t.cancel()
    assert sim.pending_events == len(keep)
    sim.run()
    assert fired == list(range(10))


def test_pending_events_tracks_cancel_and_uncancel():
    sim = Simulator()
    timer = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    assert sim.pending_events == 2
    timer.cancelled = True
    timer.cancelled = True  # idempotent
    assert sim.pending_events == 1
    timer.cancelled = False  # re-arm before it was popped
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_cancelling_a_fired_timer_does_not_corrupt_counters():
    # an AnyOf winner cancels its whole batch, including the timer that
    # already fired; that must not drive the live counter negative
    sim = Simulator()
    done = []

    def waiter():
        yield AnyOf([Delay(5), Delay(7)])
        done.append(True)

    sim.spawn(waiter())
    sim.run()
    assert done == [True]
    assert sim.pending_events == 0
    assert sim._live == 0 and sim._stale == 0


def test_run_until_done_sees_through_cancelled_timers():
    # only a cancelled timer left in the heap + a process blocked on an
    # event that never fires: that is a deadlock, not progress
    sim = Simulator()
    never = Event("never")

    def blocked():
        yield never

    proc = sim.spawn(blocked())
    sim.run_one()  # start the process; it parks on the event
    timer = sim.schedule(10, lambda: None)
    timer.cancel()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_done(proc)


#: The case ids name the two event queues this case ran on before the
#: engine kept one; "calendar" now compacts at every chance (threshold
#: 0), "heap" at the shipped threshold.
@pytest.mark.parametrize(
    "compact_min",
    [
        pytest.param(0, id="calendar"),
        pytest.param(Simulator._COMPACT_MIN, id="heap"),
    ],
)
def test_compaction_mid_run_keeps_same_instant_timers(compact_min):
    # two processes race already-fired events at t=0, cancelling one
    # delay each, so compaction triggers inside run() while the other
    # process's resume hop is queued at the same instant; run() holds
    # the heap in a local, so the rebuild must happen in place or that
    # resume is stranded
    sim = Simulator()
    sim._COMPACT_MIN = compact_min
    n_races = 2 * Simulator._COMPACT_MIN
    values = []

    def racer(name):
        for i in range(n_races):
            event = Event("fired")
            event.fire(i)
            wakeup = yield AnyOf([Delay(5), event])
            values.append((name, wakeup.value))

    sim.spawn(racer("a"))
    sim.spawn(racer("b"))
    sim.run()
    assert values == [(name, i) for i in range(n_races) for name in "ab"]
    assert sim.pending_events == 0 and sim._stale == 0


def test_same_instant_hops_keep_the_clock_object():
    # ``now + 0`` is a fresh int: rebinding the clock on a same-instant
    # dispatch would hand every later timestamp its own copy.  Zero
    # delays, zero-delay callbacks and AnyOf resume hops (elided and
    # event-racing) at a nonzero instant must leave sim.now the very
    # object it was when they were queued
    sim = Simulator()
    seen = []

    def check(before, what):
        seen.append((what, sim.now is before))

    def hopper():
        yield Delay(10**9 + 7)
        before = sim.now
        yield Delay(0)
        check(before, "delay")
        before = sim.now
        sim.schedule(0, lambda: check(before, "schedule"))
        yield Delay(0)
        before = sim.now
        yield AnyOf([Delay(0), Delay(5)])
        check(before, "elided")
        before = sim.now
        event = Event("fired")
        event.fire()
        yield AnyOf([Delay(5), event])
        check(before, "event-race")
        before = sim.now
        event = Event("later")
        sim.schedule(0, event.fire)
        yield AnyOf([Delay(5), event])
        check(before, "event-race-hop")

    sim.spawn(hopper())
    sim.run()
    assert seen == [
        (what, True)
        for what in ("delay", "schedule", "elided", "event-race", "event-race-hop")
    ]
