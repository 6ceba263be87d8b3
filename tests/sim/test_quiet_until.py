"""``Simulator.quiet_until`` is a sound lower bound on the next dispatch.

A host process retires work as one wait only when the wait ends before
:meth:`Simulator.quiet_until`, on the promise that nothing else
dispatches earlier.  Hypothesis generates programs of scheduled timers
(some of which schedule more timers, zero delays included, when they
fire), cancellations, ``run(until)`` calls and single ``run_one``
steps, with delays from zero to milliseconds and run cutoffs that
leave timers queued past the clock.  Every timer measures the bound
when it fires.  Under every tie-break, with heap compaction at the
shipped threshold and at every chance:

* the bound is never later than the next timer the same run dispatched,
  nor than that run's ``until`` + 1;
* it equals ``now`` whenever a live timer is queued at ``now``;
* outside ``run()`` -- from ``run_one`` or between calls -- it is ``now``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator

#: zero, short and long delays, so timers land both ahead of and
#: behind ones already queued
DELAYS = st.sampled_from([0, 0, 1, 2, 7, 64, 1_000, 5_000, 300_000, 2_000_000])
OP = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, st.lists(DELAYS, max_size=3)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(
        st.just("run"),
        st.sampled_from([0, 1, 3, 100, 2_000, 70_000, 400_000, None]),
    ),
    st.tuples(st.just("run_one")),
)
PROGRAM = st.lists(OP, max_size=30)

#: a cutoff between two queued timers, then inserts ahead of the one
#: still queued, one of them far in the future
CUTOFF = [
    ("schedule", 5_000, []),
    ("schedule", 64, [0, 1]),
    ("run", 100),
    ("schedule", 1, [0]),
    ("schedule", 2_000_000, [7]),
    ("run", None),
]
#: cancelled entries at and ahead of the clock
CANCELS = [
    ("schedule", 7, []),
    ("schedule", 7, [0]),
    ("schedule", 64, []),
    ("cancel", 0),
    ("cancel", 2),
    ("run", 3),
    ("run_one",),
    ("run", None),
]

#: (tie-break, compaction threshold).  The case ids name the two event
#: queues these cases ran on before the engine kept one; the "calendar"
#: cases now compact the heap at every chance (threshold 0), the "heap"
#: cases at the shipped threshold.
MODES = [
    pytest.param("fifo", 0, id="fifo-calendar"),
    pytest.param("fifo", Simulator._COMPACT_MIN, id="fifo-heap"),
    pytest.param("lifo", Simulator._COMPACT_MIN, id="lifo-heap"),
    pytest.param("seeded:7", 0, id="seeded:7-calendar"),
]


def run_program(program, tie_break, compact_min=Simulator._COMPACT_MIN):
    """Run ``program``; returns (log, run limits).  Each log entry is
    ``(run index or None, now, bound, live timer queued at now)``."""
    sim = Simulator(tie_break=tie_break)
    sim._COMPACT_MIN = compact_min
    timers = []
    queued = {}  # timer index -> when, for live undispatched timers
    log = []
    limits = []
    current = [None]

    def fired(index, children):
        del queued[index]
        for delay in children:
            add(delay, ())
        busy = any(when == sim.now for when in queued.values())
        log.append((current[0], sim.now, sim.quiet_until(), busy))

    def add(delay, children):
        index = len(timers)
        timers.append(sim.schedule(delay, lambda: fired(index, children)))
        queued[index] = sim.now + delay

    for op in program:
        kind = op[0]
        if kind == "schedule":
            add(op[1], op[2])
        elif kind == "cancel" and timers:
            index = op[1] % len(timers)
            timers[index].cancel()
            queued.pop(index, None)
        elif kind == "run":
            until = None if op[1] is None else sim.now + op[1]
            current[0] = len(limits)
            limits.append(until)
            sim.run(until)
            current[0] = None
        elif kind == "run_one":
            sim.run_one()
        assert sim.quiet_until() == sim.now, "window offered outside run()"
    return log, limits


def check(log, limits):
    for position, (run, now, bound, busy) in enumerate(log):
        if run is None:
            assert bound == now, "run_one offered a window"
            continue
        if busy:
            assert bound == now, "work queued at now, yet a window"
        until = limits[run]
        if until is not None:
            assert bound <= until + 1, "window past the run's until"
        for later_run, later_now, _, _ in log[position + 1:]:
            if later_run == run:
                assert bound <= later_now, "a timer fired inside the window"
                break


@pytest.mark.parametrize("tie_break,compact_min", MODES)
@settings(max_examples=150, deadline=None)
@given(program=PROGRAM)
@example(program=CUTOFF)
@example(program=CANCELS)
def test_bound_never_passes_a_dispatch(program, tie_break, compact_min):
    check(*run_program(program, tie_break, compact_min))


@pytest.mark.parametrize("tie_break,compact_min", MODES)
def test_bound_reaches_the_next_timer(tie_break, compact_min):
    # with nothing else queued the window really opens: up to the next
    # timer, or to the run's until when that comes first
    log, _ = run_program(
        [("schedule", 0, []), ("schedule", 1_000, []), ("run", 600)],
        tie_break,
        compact_min,
    )
    assert [entry[2] for entry in log] == [601]
    log, _ = run_program(
        [("schedule", 0, []), ("schedule", 1_000, []), ("run", None)],
        tie_break,
        compact_min,
    )
    assert log[0][2] == 1_000


def test_reserve_seq_consumes_sequence_numbers():
    sim = Simulator()
    sim.reserve_seq(5)
    sim.schedule(0, lambda: None)
    assert sim._seq == 6
    with pytest.raises(SimulationError):
        sim.reserve_seq(-1)
