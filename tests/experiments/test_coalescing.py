"""Compute-span coalescing: digest-identical, and de-coalesces on demand.

``SystemConfig.coalesce_compute`` lets the engine run a long uniform
compute phase as one interruptible wait instead of per-chunk delays.
The contract has two halves:

* **identity** — a coalesced run digests bit-identically to the
  per-chunk expansion: same spans, counters, metrics, same mid-span
  interrupt handling, same state at a run cutoff;
* **transparency** — anything needing per-chunk visibility (schedule
  tracing, an attached engine profiler, an armed fault injector)
  forces per-chunk execution from that point on, with no opt-out.

The identity tests also assert the coalesced run dispatched *fewer*
engine events — otherwise a silently-refusing fast path would pass
every equality check while testing nothing.
"""

from repro.costs import DEFAULT_COSTS
from repro.experiments.config import SystemConfig
from repro.experiments.workbench import build_system, vcpus_for
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.guest.vm import GuestVm
from repro.guest.workloads import CoremarkStats, coremark_workload_factory
from repro.lint.sanitizer import diff_digests, run_probe
from repro.obs.profile import EngineProfiler
from repro.sim.clock import ms


def _coremark_system(coalesce: bool, trace: bool = False, n_cores: int = 4):
    config = SystemConfig(
        mode="gapped",
        n_cores=n_cores,
        seed=7,
        trace_schedules=trace,
        coalesce_compute=coalesce,
    )
    system = build_system(config, DEFAULT_COSTS)
    stats = CoremarkStats()
    vm = GuestVm(
        "cm",
        vcpus_for(config, n_cores),
        coremark_workload_factory(stats),
        costs=DEFAULT_COSTS,
    )
    kvm = system.launch(vm)
    system.start(kvm)
    return system, vm, stats


def _run(system, duration_ns):
    system.run_for(duration_ns)
    system.finish()


class TestDigestIdentity:
    def test_probe_digests_bit_identical(self, span_log):
        expanded = run_probe(
            seed=0, n_cores=3, duration_ms=15, trace_schedules=False
        )
        expanded_spans = span_log.runs()
        coalesced = run_probe(
            seed=0,
            n_cores=3,
            duration_ms=15,
            trace_schedules=False,
            coalesce_compute=True,
        )
        assert diff_digests(expanded, coalesced) == []
        # untraced digests carry no spans: compare the checked ones
        coalesced_spans = span_log.runs()[len(expanded_spans):]
        assert expanded_spans and coalesced_spans == expanded_spans

    def test_coalescing_actually_engages(self):
        # the identity above is vacuous if coalescing silently refused:
        # the whole point is doing the same work with fewer events
        expanded, _, _ = _coremark_system(coalesce=False)
        coalesced, _, _ = _coremark_system(coalesce=True)
        _run(expanded, ms(100))
        _run(coalesced, ms(100))
        assert coalesced.sim.pending_events <= expanded.sim.pending_events
        assert coalesced.sim._seq < expanded.sim._seq

    def test_cutoff_mid_span_settles_identically(self, span_log):
        # cut at a time that is aligned to no chunk boundary, so the
        # coalesced run must synthesize completed chunks and re-open
        # the partial one exactly where the expansion was suspended
        duration = ms(50) + 12_345
        systems = {}
        for coalesce in (False, True):
            system, vm, stats = _coremark_system(coalesce)
            _run(system, duration)
            systems[coalesce] = (system, vm, stats)
        exp_sys, exp_vm, exp_stats = systems[False]
        coa_sys, coa_vm, coa_stats = systems[True]
        assert coa_sys.sim.now == exp_sys.sim.now
        assert coa_stats.chunks_completed == exp_stats.chunks_completed
        assert span_log.spans(exp_sys.tracer)
        assert span_log.spans(coa_sys.tracer) == span_log.spans(exp_sys.tracer)
        assert coa_sys.tracer.counters == exp_sys.tracer.counters
        for coa_core, exp_core in zip(
            coa_sys.machine.cores, exp_sys.machine.cores
        ):
            assert coa_core.busy_ns == exp_core.busy_ns
        for coa_vcpu, exp_vcpu in zip(coa_vm.vcpus, exp_vm.vcpus):
            assert coa_vcpu.compute_ns_done == exp_vcpu.compute_ns_done
            assert coa_vcpu.ticks_handled == exp_vcpu.ticks_handled


class TestTransparentDecoalescing:
    def test_schedule_tracing_forces_expansion(self):
        system, _, _ = _coremark_system(coalesce=True, trace=True)
        assert not system.machine.coalesce_allowed()
        traced_coalesced, _, _ = _coremark_system(coalesce=True, trace=True)
        traced_expanded, _, _ = _coremark_system(coalesce=False, trace=True)
        _run(traced_coalesced, ms(30))
        _run(traced_expanded, ms(30))
        # with tracing on the knob must be inert: identical full trace,
        # and the *same number of engine events* (nothing was coalesced)
        assert traced_coalesced.tracer.records == traced_expanded.tracer.records
        assert traced_coalesced.tracer.spans == traced_expanded.tracer.spans
        assert traced_coalesced.sim._seq == traced_expanded.sim._seq

    def test_attached_profiler_forces_expansion(self):
        system, _, _ = _coremark_system(coalesce=True)
        assert system.machine.coalesce_allowed()
        system.sim.attach_profiler(EngineProfiler())
        assert system.sim.profiling
        assert not system.machine.coalesce_allowed()
        system.sim.detach_profiler()
        assert system.machine.coalesce_allowed()

    def test_armed_fault_injector_forces_expansion(self):
        system, _, _ = _coremark_system(coalesce=True)
        machine = system.machine
        assert machine.coalesce_allowed()
        injector = FaultInjector(
            FaultPlan("noop"),
            machine.rng.fork("faults"),
            system.sim,
            system.tracer,
        )
        injector.attach_machine(machine)
        assert machine.coalesce_inhibit == 1
        assert not machine.coalesce_allowed()
        # "the faulty machine was replaced": detaching lifts the inhibit
        injector.detach_all()
        assert machine.coalesce_inhibit == 0
        assert machine.coalesce_allowed()

    def test_armed_injector_run_matches_expanded_run(self, span_log):
        # with an injector armed, the coalesce knob must be fully
        # inert: the run dispatches exactly the expanded event count
        # and lands in exactly the expanded state
        inhibited, inh_vm, inh_stats = _coremark_system(coalesce=True)
        injector = FaultInjector(
            FaultPlan("noop"),
            inhibited.machine.rng.fork("faults"),
            inhibited.sim,
            inhibited.tracer,
        )
        injector.attach_machine(inhibited.machine)
        expanded, exp_vm, exp_stats = _coremark_system(coalesce=False)
        _run(inhibited, ms(60))
        _run(expanded, ms(60))
        assert inhibited.sim._seq == expanded.sim._seq
        assert span_log.spans(inhibited.tracer) == span_log.spans(
            expanded.tracer
        )
        assert inh_stats.chunks_completed == exp_stats.chunks_completed
