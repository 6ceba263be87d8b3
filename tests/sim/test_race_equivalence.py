"""Differential test: the live engine's ``AnyOf`` arming vs the frozen one.

``benchmarks/_legacy_engine.py`` is the engine before any hot-path work:
every ``AnyOf`` source is its own timer or waiter closure and settling
re-queues the resume through ``call_soon``.  The live engine elides
all-delay races, arms ``[Delay, Event]`` as one timer plus one waiter,
and runs every other event race through a slotted race object.  None of
that may change what a process observes.

Hypothesis generates small multi-process programs that yield ``Delay``,
``Event``, ``Process`` and ``AnyOf`` (sources in every order, the same
event listed twice), fire events directly and from inside other
waiters' callbacks, race events fired at the instant their rival delay
expires, wait on already-fired events, and run cancellation storms long
enough to cross ``Simulator._COMPACT_MIN``.  Each program runs on the
legacy engine and on the live engine; the stream of resumes ``(now, process, wakeup index, value)`` and the final
sequence counter must be identical.
"""

import importlib.util
import pathlib
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.engine as live_engine

_LEGACY_PATH = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "_legacy_engine.py"
)


def _load_legacy():
    spec = importlib.util.spec_from_file_location("_legacy_engine_oracle", _LEGACY_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


legacy_engine = _load_legacy()

N_EVENTS = 4
DELAYS = st.sampled_from([0, 1, 2, 3, 5])
EVENT = st.integers(0, N_EVENTS - 1)
SOURCE = st.one_of(
    st.tuples(st.just("d"), DELAYS),
    st.tuples(st.just("e"), EVENT),
    st.tuples(st.just("p"), st.lists(DELAYS, max_size=3)),
)
OP = st.one_of(
    st.tuples(st.just("delay"), DELAYS),
    st.tuples(st.just("fire"), EVENT),
    st.tuples(st.just("wait"), EVENT),
    st.tuples(st.just("join"), st.lists(DELAYS, max_size=3)),
    st.tuples(st.just("anyof"), st.lists(SOURCE, min_size=1, max_size=4)),
    st.tuples(st.just("chain"), EVENT, EVENT),
    st.tuples(st.just("storm"), st.integers(1, 80), DELAYS, st.booleans()),
)
PROGRAM = st.lists(st.lists(OP, max_size=6), min_size=1, max_size=4)

#: a storm per process, both flavours, together well past _COMPACT_MIN
STORMS = [
    [("storm", 80, 3, True), ("delay", 1)],
    [("storm", 80, 0, False)],
    [("anyof", [("d", 2), ("e", 0)]), ("storm", 40, 2, False)],
]
#: an event fired at the instant its rival delay expires, both orders,
#: plus a chain that fires a second race's event from inside the first
#: race's wakeup callbacks
COLLISIONS = [
    [("anyof", [("d", 3), ("e", 0)]), ("anyof", [("e", 1), ("d", 0)])],
    [("delay", 3), ("chain", 0, 1), ("fire", 0)],
    [("anyof", [("e", 1), ("e", 1), ("d", 5)]), ("fire", 2)],
    [("anyof", [("d", 3), ("e", 2), ("p", [1, 2])])],
]
#: already-fired sources, before and after a delay source
FIRED = [
    [("fire", 0), ("anyof", [("d", 1), ("e", 0)]), ("anyof", [("e", 0), ("d", 1)])],
    [("fire", 1), ("anyof", [("d", 2), ("d", 0), ("e", 1), ("d", 4)])],
    [("join", []), ("anyof", [("p", []), ("d", 0)])],
]


def run_program(mod, program, tie_break):
    """Run ``program`` on engine module ``mod``; returns (resumes, seq)."""
    sim = mod.Simulator(tie_break=tie_break)
    events = [mod.Event(f"e{i}") for i in range(N_EVENTS)]
    log = []
    counter = [0]

    def next_value():
        counter[0] += 1
        return counter[0]

    def fire(event):
        if not event.fired:
            event.fire(next_value())

    def child(delays, result):
        for ns in delays:
            yield mod.Delay(ns)
        return result

    def spawn_child(name, delays):
        return sim.spawn(child(delays, next_value()), name=name)

    def body(name, ops):
        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "delay":
                yield mod.Delay(op[1])
                log.append((sim.now, name, None, None))
            elif kind == "fire":
                fire(events[op[1]])
            elif kind == "wait":
                value = yield events[op[1]]
                log.append((sim.now, name, None, value))
            elif kind == "join":
                value = yield spawn_child(f"{name}.{step}", op[1])
                log.append((sim.now, name, None, value))
            elif kind == "chain":
                target = events[op[2]]
                events[op[1]].add_waiter(lambda _value, target=target: fire(target))
            elif kind == "anyof":
                sources = []
                for index, (what, arg) in enumerate(op[1]):
                    if what == "d":
                        sources.append(mod.Delay(arg))
                    elif what == "e":
                        sources.append(events[arg])
                    else:
                        sources.append(spawn_child(f"{name}.{step}.{index}", arg))
                wakeup = yield mod.AnyOf(sources)
                log.append((sim.now, name, wakeup.index, wakeup.value))
            else:  # storm: many races whose delay side loses
                _, count, ns, prefired = op
                for _ in range(count):
                    event = mod.Event("storm")
                    if prefired:
                        event.fire(next_value())
                    else:
                        sim.schedule(0, lambda event=event: fire(event))
                    wakeup = yield mod.AnyOf([mod.Delay(ns + 1), event])
                    log.append((sim.now, name, wakeup.index, wakeup.value))

    for pid, ops in enumerate(program):
        sim.spawn(body(f"p{pid}", ops), name=f"p{pid}")
    sim.run()
    return log, sim._seq


TIE_BREAKS = ["fifo", "lifo", "seeded:7"]


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@settings(max_examples=60, deadline=None)
@given(program=PROGRAM)
@example(program=STORMS)
@example(program=COLLISIONS)
@example(program=FIRED)
@example(program=STORMS + COLLISIONS[:1])
def test_live_engine_matches_legacy(tie_break, program):
    expected = run_program(legacy_engine, program, tie_break)
    assert run_program(live_engine, program, tie_break) == expected


def test_storm_examples_cross_the_compaction_threshold():
    # the pinned storm examples must actually exercise compaction on
    # the live engine, or the differential test above proves nothing
    # about it
    compactions = []

    class Counting(live_engine.Simulator):
        def _compact(self):
            compactions.append(self._stale)
            super()._compact()

    engine = SimpleNamespace(
        Simulator=Counting,
        Event=live_engine.Event,
        Delay=live_engine.Delay,
        AnyOf=live_engine.AnyOf,
    )
    run_program(engine, STORMS, "fifo")
    assert compactions
