"""Settled ``AnyOf`` races leave no garbage and no residue.

Every simulated core segment is an ``AnyOf([Delay(work), doorbell])``
race, tens of thousands per run.  A race that still referenced itself
after settling would be freed only by the cycle collector, whose full
passes walk every stored execution span; so a settled race must be
reclaimable by reference counting alone.  These tests run real
workloads with the collector off and then ask it what it would have
had to clean up: nothing of a ``repro.sim`` type.

The no-residue contract is pinned too: the losing event of a race has
no waiter left behind, and a losing delay is cancelled with
``pending_events`` back where it was before the race was armed.
"""

import gc
from collections import Counter

import pytest

from repro.costs import DEFAULT_COSTS
from repro.experiments.config import SystemConfig
from repro.experiments.workbench import (
    CoremarkStats,
    build_system,
    coremark_workload_factory,
    vcpus_for,
)
from repro.fleet import ScenarioSpec, boot_server, place, redis_tenant, uniform_rack
from repro.fleet.scenario import run_server
from repro.guest.vm import GuestVm
from repro.sim.clock import ms
from repro.sim.engine import AnyOf, Delay, Event, Simulator


def _sim_garbage(run):
    """Run ``run()`` with the collector off and return a count, by type,
    of the unreachable ``repro.sim`` objects it left.  ``run`` returns
    what it built, so everything still in use stays reachable."""
    gc.collect()
    gc.disable()
    try:
        keep = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage = Counter(
                type(obj).__qualname__
                for obj in gc.garbage
                if type(obj).__module__.startswith("repro.sim")
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.enable()
    del keep
    return garbage


def _coremark():
    config = SystemConfig(mode="gapped", n_cores=8, delegation=False)
    system = build_system(config, DEFAULT_COSTS)
    vm = GuestVm(
        "coremark0",
        vcpus_for(config, config.n_cores),
        coremark_workload_factory(CoremarkStats()),
        costs=DEFAULT_COSTS,
    )
    system.start(system.launch(vm))
    system.run_for(ms(10))
    return system


def _one_tenant_server():
    spec = ScenarioSpec(
        servers=uniform_rack(1, SystemConfig(mode="gapped", n_cores=8), seed=3),
        tenants=(redis_tenant("solo", n_vcpus=2, rate_rps=6000.0),),
        duration_ns=int(ms(5)),
        seed=3,
    )
    server = boot_server(spec, place(spec), 0)
    run_server(server, spec)
    return server


@pytest.mark.parametrize("run", [_coremark, _one_tenant_server], ids=["coremark", "run_server"])
def test_settled_races_leave_no_cyclic_garbage(run):
    assert _sim_garbage(run) == Counter()


def test_the_check_sees_a_cycle():
    # the probe itself must notice a repro.sim object kept alive only
    # by a reference cycle
    def leak():
        event = Event("leak")
        event.add_waiter(lambda _value, event=event: None)

    assert _sim_garbage(leak) == Counter({"Event": 1})


def _arm(sources, settle):
    """Arm ``AnyOf(sources)`` in a fresh simulator, call ``settle(sim)``
    once it is armed, and run to the end.  Returns what the racing
    process saw: pending events before arming and after resuming, the
    wakeup, and how many cancelled timers were still queued when it
    resumed."""
    sim = Simulator()
    seen = {}

    def racer():
        seen["before"] = sim.pending_events
        seen["wakeup"] = yield AnyOf(sources)
        seen["after"] = sim.pending_events
        seen["stale"] = sim._stale

    sim.spawn(racer())
    sim.run_one()  # the spawn hop arms the race
    settle(sim)
    sim.run()
    return seen


def test_delay_win_leaves_no_waiter_on_the_event():
    event = Event("doorbell")
    seen = _arm([Delay(10), event], lambda sim: None)
    assert seen["wakeup"].index == 0
    assert event._waiters == []
    assert seen["stale"] == 0
    assert seen["after"] == seen["before"]


def test_event_win_cancels_the_delay():
    event = Event("doorbell")
    seen = _arm([Delay(10), event], lambda sim: event.fire("irq"))
    assert (seen["wakeup"].index, seen["wakeup"].value) == (1, "irq")
    assert seen["stale"] == 1  # the delay timer, cancelled in the queue
    assert seen["after"] == seen["before"]


@pytest.mark.parametrize("winner", [0, 1, 2])
def test_general_race_leaves_no_residue(winner):
    events = [Event("a"), Event("b")]
    sources = [events[0], Delay(10), events[1], Delay(20)]
    fire = {0: events[0], 2: events[1]}.get(winner)
    seen = _arm(sources, lambda sim: fire and fire.fire(winner))
    assert seen["wakeup"].index == winner
    assert [event._waiters for event in events] == [[], []]
    # every losing delay is cancelled: both when an event wins, the
    # other one when a delay wins
    assert seen["stale"] == (2 if fire else 1)
    assert seen["after"] == seen["before"]
