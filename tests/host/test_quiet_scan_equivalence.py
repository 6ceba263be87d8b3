"""Quiescent-window scan coalescing changes nothing but host cost.

The wake-up thread asks for its completion-slot polls as
:class:`~repro.host.threads.TSlices`, and the kernel retires every poll
that ends before :meth:`Simulator.quiet_until` as one wait.  These tests
force the window shut by pinning the bound to ``sim.now`` -- from here,
so ``src/`` carries no knob -- and require the two runs to be
indistinguishable: canonical digest, the full list of spans the tenure
monitor checked (stored or not), ``sim._seq``,
per-core busy time and refill debts, the notifier's counters and the
canonical state capture, across tie-breaks, schedule tracing, heap
compaction thresholds and armed fault plans.  Each comparison also
checks the window actually opened: fewer ``PhysicalCore.execute`` calls
with it than without.

The CoreMark and relay cells run in short odd-sized ``run(until)``
slices and fingerprint the system at every cutoff, so a window that
outlived its run's ``until`` shows up as a cutoff with the wrong
``_seq``.
"""

import dataclasses

import pytest

from repro.costs import DEFAULT_COSTS
from repro.experiments.config import SystemConfig
from repro.experiments.runner import canonical_digest
from repro.experiments.system import System
from repro.experiments.workbench import (
    CoremarkStats,
    build_system,
    coremark_workload_factory,
    vcpus_for,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.fleet.elastic import run_elastic_case
from repro.fleet.placement import place
from repro.fleet.scenario import boot_server, run_server
from repro.fleet.sweep import consolidation_scenario
from repro.guest.vm import GuestVm
from repro.host.threads import HostThread, SchedClass, TBlock, TCompute
from repro.hw.core import PhysicalCore
from repro.rpc import AsyncRpcPort
from repro.sim.clock import ms, us
from repro.sim.engine import Simulator

#: odd cutoff spacing, so cutoffs land at every phase of a scan
STEP_NS = 7_919


def _coremark(plan=None):
    """Gapped CoreMark without timer delegation: every tick exits to the
    host core, so the wake-up thread scans constantly."""
    config = SystemConfig(mode="gapped", n_cores=8, delegation=False, seed=3)
    system = build_system(config, DEFAULT_COSTS)
    stats = CoremarkStats()
    vm = GuestVm(
        "coremark0",
        vcpus_for(config, config.n_cores),
        coremark_workload_factory(stats),
        costs=DEFAULT_COSTS,
    )
    kvm = system.launch(vm)
    if plan is not None:
        injector = FaultInjector(
            plan, system.machine.rng.fork("faults"), system.sim, system.tracer
        )
        injector.attach_gic(system.machine.gic)
        injector.attach_kernel(system.kernel)
        injector.attach_notifier(system.notifier)
        for port in kvm.ports.values():
            injector.attach_port(port)
        system.notifier.watchdog_ns = us(200)
    system.start(kvm)
    cutoffs = _run_in_slices(system, ms(20))
    return {
        "score": stats.chunks_completed,
        "exits": system.exit_counts(),
        "cutoffs": cutoffs,
    }


def _relay():
    """Two host cores: the wake-up thread on core 0 and vCPU-like
    threads pinned to core 1, each of which IPIs core 0 as soon as it
    is woken.  A claim so queues work at ``now`` (core 1's scheduler
    resumes) whose IPI reaches core 0 a few hundred ns later, while the
    scan goes on: a window that ignored same-instant work would run
    straight past it."""
    system = System(SystemConfig(mode="gapped", n_cores=4, n_host_cores=2))
    sim, kernel, notifier = system.sim, system.kernel, system.notifier
    ports = []
    for index in range(12):
        port = AsyncRpcPort(sim, f"relay{index}", notifier.notify_exit)
        notifier.register_port(port)
        ports.append(port)

    def vcpu(port):
        while True:
            slot = port.submit("run")
            yield TBlock(slot.claimed)
            kernel.kick_core(0)
            yield TCompute(us(1))

    for port in ports:
        kernel.add_thread(
            HostThread(port.name, vcpu(port), SchedClass.FIFO, affinity={1})
        )

    def complete(n):
        port = ports[n * 7 % len(ports)]
        if port.slot.state == "submitted":
            port.complete(n)
        sim.schedule(2_003 + 97 * (n % 5), lambda: complete(n + 1))

    sim.schedule(us(5), lambda: complete(0))
    cutoffs = _run_in_slices(system, ms(1))
    return {"wakeups": notifier.wakeups_performed, "cutoffs": cutoffs}


def _run_in_slices(system, duration_ns):
    """Run in ``STEP_NS`` slices; fingerprint every cutoff."""
    cutoffs = []
    end = system.sim.now + duration_ns
    while system.sim.now < end:
        system.run_for(STEP_NS)
        cutoffs.append(
            (
                system.sim._seq,
                len(system.tracer.spans),
                system.tracer.monitor.core_windows(),
                tuple(core.busy_ns for core in system.machine.cores),
            )
        )
    system.finish()
    return cutoffs


def _serve():
    spec = consolidation_scenario(
        3, "gapped", n_servers=1, duration_ns=ms(5), seed=1
    )
    server = boot_server(spec, place(spec), 0)
    return run_server(server, spec)


def _elastic():
    return run_elastic_case("autoscale", duration_ns=ms(20), seed=0)


CELLS = {
    "coremark": _coremark,
    "relay": _relay,
    "serve": _serve,
    "elastic": _elastic,
}


def _system_state(system, span_log):
    notifier = system.notifier
    spans = span_log.spans(system.tracer)
    if system.tracer.enabled:
        assert spans == system.tracer.spans
    return {
        "seq": system.sim._seq,
        "spans": spans,
        "busy": [core.busy_ns for core in system.machine.cores],
        "debts": [
            sorted(
                (domain.name, entry[0])
                for domain, entry in core.pollution._pending.items()
            )
            for core in system.machine.cores
        ],
        "notifier": (
            notifier.ipis_received,
            notifier.wakeups_performed,
            notifier.activations,
            notifier.watchdog_polls,
            notifier.watchdog_recoveries,
        ),
        "capture": system.state_digest(),
    }


def _run(monkeypatch, span_log, cell, window, tie_break="fifo", trace=False,
         compact_min=Simulator._COMPACT_MIN, **kwargs):
    """Run one cell with every System it builds forced onto the given
    engine settings; returns (digest, per-system states, execute calls,
    heap compactions)."""
    systems = []
    calls = [0]
    compactions = [0]
    with monkeypatch.context() as patch:
        init = System.__init__

        def forced(self, config=None, costs=DEFAULT_COSTS):
            config = dataclasses.replace(
                config or SystemConfig(),
                tie_break=tie_break,
                trace_schedules=trace,
            )
            init(self, config, costs)
            systems.append(self)

        execute = PhysicalCore.execute

        def counted(self, *args, **kw):
            calls[0] += 1
            return execute(self, *args, **kw)

        compact = Simulator._compact

        def counted_compact(self):
            compactions[0] += 1
            compact(self)

        patch.setattr(System, "__init__", forced)
        patch.setattr(PhysicalCore, "execute", counted)
        patch.setattr(Simulator, "_compact", counted_compact)
        patch.setattr(Simulator, "_COMPACT_MIN", compact_min)
        if not window:
            patch.setattr(Simulator, "quiet_until", lambda sim: sim.now)
        result = CELLS[cell](**kwargs)
        states = [_system_state(system, span_log) for system in systems]
    return canonical_digest(result), states, calls[0], compactions[0]


def _assert_equivalent(monkeypatch, span_log, cell, **kwargs):
    closed = _run(monkeypatch, span_log, cell, window=False, **kwargs)
    opened = _run(monkeypatch, span_log, cell, window=True, **kwargs)
    assert opened[0] == closed[0], "canonical digest moved"
    assert len(opened[1]) == len(closed[1])
    for on, off in zip(opened[1], closed[1]):
        for key in off:
            assert on[key] == off[key], f"{key} differs"
    # the identity is vacuous unless the window actually opened
    assert opened[2] < closed[2]
    return closed, opened


#: The case ids name the two event queues these cases ran on before the
#: engine kept one.  The "calendar" cases now run the heap with
#: compaction at every chance (threshold 0), so cancelled entries are
#: swept and the heap rebuilt in place inside ``run()`` while windows
#: are open; the "heap" cases run it at the shipped threshold.
COMPACTION = [
    pytest.param(0, id="calendar"),
    pytest.param(Simulator._COMPACT_MIN, id="heap"),
]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("compact_min", COMPACTION)
@pytest.mark.parametrize("tie_break", ["fifo", "lifo", "seeded:7"])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_window_matches_slot_by_slot(
    monkeypatch, span_log, cell, tie_break, compact_min, trace
):
    closed, opened = _assert_equivalent(
        monkeypatch, span_log, cell, tie_break=tie_break,
        compact_min=compact_min,
        trace=trace,
    )
    if compact_min == 0 and cell != "relay":
        # the relay cell cancels no timer; elsewhere the eager threshold
        # is vacuous unless the heap was rebuilt
        assert closed[3] > 0 and opened[3] > 0


FAULT_PLANS = [
    FaultPlan.of(
        "ipi-drop", FaultSpec(FaultKind.IPI_DROP, rate=0.3, intids=(8,))
    ),
    FaultPlan.of(
        "ipi-duplicate",
        FaultSpec(FaultKind.IPI_DUPLICATE, rate=0.3, delay_ns=us(1)),
    ),
    FaultPlan.of(
        "completion-stall",
        FaultSpec(FaultKind.RPC_COMPLETION_STALL, rate=0.2, delay_ns=us(30)),
    ),
    FaultPlan.of(
        "wakeup-stall",
        FaultSpec(FaultKind.WAKEUP_STALL, rate=0.3, delay_ns=us(20)),
    ),
]


@pytest.mark.parametrize("plan", FAULT_PLANS, ids=lambda plan: plan.name)
def test_window_matches_under_fault_plans(monkeypatch, span_log, plan):
    # the injector draws from its own rng streams at the sites it
    # hooks; any shift in when or how often a site is reached would
    # desynchronize those draws and show up in the comparison
    _assert_equivalent(monkeypatch, span_log, "coremark", plan=plan)
