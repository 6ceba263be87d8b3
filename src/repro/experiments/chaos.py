"""Chaos audit harness: workloads under fault injection, invariants on.

Runs CoreMark- and NetPIPE-shaped workloads on a core-gapped system
while a :class:`repro.faults.FaultInjector` executes a fault plan, with
every hardening knob enabled (wake-up watchdog, bounded run-call
retries, sync-RMI timeouts).  After each run the harness re-checks the
invariants that must survive *any* fault:

* the core-gap audit stays clean (faults may cost performance, never
  isolation);
* exit-count and CPU-time conservation hold
  (:func:`repro.security.audit.audit_conservation`);
* the workload either completes, or fails with a *clean, host-visible*
  error (refused admission or a recorded run error) -- never a hang,
  a guest-visible failure, or an unhandled exception.

Everything is seeded: same (scenario, plan, seed) triple replays
bit-identically, which ``tests/experiments/test_chaos_determinism.py``
checks against the sanitizer's trace digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from ..guest.actions import Compute
from ..guest.vm import GuestVm
from ..guest.workloads import (
    CoremarkStats,
    NetpipeStats,
    netpipe_workload_factory,
)
from ..host.hotplug import HotplugError
from ..host.planner import AdmissionError
from ..host.threads import HostThread, SchedClass
from ..rpc.ports import RpcTimeoutError
from ..security import CoreGapAuditor, audit_conservation
from ..sim.clock import ms, us
from ..sim.engine import SimulationError
from ..sim.timeout import RetryPolicy
from .config import SystemConfig
from .runner import Cell, cell, run_cells
from .system import System

__all__ = [
    "ChaosOutcome",
    "StormOutcome",
    "default_fault_plans",
    "digest_chaos_outcome",
    "plan_scenarios",
    "run_chaos_case",
    "run_chaos_matrix",
    "run_hotplug_storm",
    "run_storm_matrix",
    "storm_cells",
    "chaos_cells",
    "CHAOS_SCENARIOS",
]

#: workload scenarios the harness knows how to drive
CHAOS_SCENARIOS = ("coremark", "netpipe")

#: simulated-time ceiling per case; generous enough to cover full retry
#: exhaustion against a dead core (RetryPolicy(ms(1), 6) ~ 127 ms)
CASE_BUDGET_NS = ms(500)

#: time the guarded launch may take before the case counts as hung
LAUNCH_BUDGET_NS = ms(50)


@dataclass
class ChaosOutcome:
    """Result of one (scenario, plan, seed) chaos cell."""

    scenario: str
    plan: str
    seed: int
    #: completed | host_error | refused | hung
    status: str
    detail: str = ""
    host_errors: List[str] = field(default_factory=list)
    injections: Dict[str, int] = field(default_factory=dict)
    audit_problems: List[str] = field(default_factory=list)
    recoveries: Dict[str, int] = field(default_factory=dict)
    duration_ns: int = 0
    #: the finished System, for digesting/inspection (not part of repr);
    #: stripped to None when the outcome crosses a process boundary
    system: object = field(default=None, repr=False, compare=False)
    #: sanitizer trace digest, precomputed where the System still lives
    #: (always set on matrix outcomes; see :func:`digest_chaos_outcome`)
    digest: object = field(default=None, repr=False, compare=False)

    @property
    def survived(self) -> bool:
        """The run upheld the chaos contract: no hang, no audit
        violation -- completion and clean host-side errors both count."""
        return self.status != "hung" and not self.audit_problems


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------

#: SGIs the plans are scoped to: the CVM-exit IPI (8) and the host-kick
#: IPI (9).  Scheduler SGIs are out of scope -- faulting them stresses
#: the host scheduler model, not the paper's transports.
_CVM_SGIS = (8, 9)


def default_fault_plans() -> List[FaultPlan]:
    """The chaos matrix rows: one plan per fault-taxonomy entry, plus a
    fault-free control."""
    return [
        FaultPlan.of("control"),
        FaultPlan.of(
            "drop-exit-ipi",
            FaultSpec(FaultKind.IPI_DROP, rate=0.3, intids=(8,)),
        ),
        FaultPlan.of(
            "drop-kick-ipi",
            FaultSpec(FaultKind.IPI_DROP, rate=0.5, intids=(9,)),
        ),
        FaultPlan.of(
            "jitter-ipi",
            FaultSpec(
                FaultKind.IPI_DELAY, rate=0.25, delay_ns=us(50),
                intids=_CVM_SGIS,
            ),
            FaultSpec(
                FaultKind.IPI_DUPLICATE, rate=0.25, delay_ns=us(5),
                intids=_CVM_SGIS,
            ),
        ),
        FaultPlan.of(
            "stall-completion",
            FaultSpec(
                FaultKind.RPC_COMPLETION_STALL, rate=0.2, delay_ns=us(300)
            ),
        ),
        FaultPlan.of(
            "corrupt-completion",
            FaultSpec(FaultKind.RPC_COMPLETION_CORRUPT, count=1),
        ),
        FaultPlan.of(
            "wakeup-stall",
            FaultSpec(FaultKind.WAKEUP_STALL, rate=0.3, delay_ns=us(200)),
        ),
        FaultPlan.of(
            "hotplug-flaky",
            FaultSpec(FaultKind.HOTPLUG_ABORT, count=1),
        ),
        FaultPlan.of(
            "hotplug-storm",
            FaultSpec(FaultKind.HOTPLUG_ABORT, rate=1.0),
        ),
        FaultPlan.of(
            "dead-core",
            # armed after launch with after_runs=0: the core swallows
            # the very first run call, exercising retry exhaustion
            FaultSpec(FaultKind.CORE_STALL, after_runs=0),
        ),
        FaultPlan.of(
            "virtio-delay",
            FaultSpec(
                FaultKind.VIRTIO_COMPLETION_DELAY, rate=0.3, delay_ns=us(400)
            ),
        ),
    ]


def plan_scenarios(plan: FaultPlan) -> Tuple[str, ...]:
    """Scenarios a plan is meaningful for (virtio faults need I/O)."""
    if plan.kinds == (FaultKind.VIRTIO_COMPLETION_DELAY,):
        return ("netpipe",)
    return CHAOS_SCENARIOS


# ----------------------------------------------------------------------
# finite workloads (chaos needs completion, not steady state)
# ----------------------------------------------------------------------


def _finite_coremark_factory(stats: CoremarkStats, chunks: int, chunk_ns: int):
    def factory(vm: GuestVm, index: int):
        return _finite_coremark_vcpu(stats, index, chunks, chunk_ns)

    return factory


def _finite_coremark_vcpu(
    stats: CoremarkStats, index: int, chunks: int, chunk_ns: int
):
    for _ in range(chunks):
        yield Compute(chunk_ns)
        stats.note_chunk(index)


def _finite_idle_vcpu(chunks: int):
    for _ in range(chunks):
        yield Compute(1_000_000)


def _finite_netpipe_factory(stats: NetpipeStats, device: str, clock):
    base = netpipe_workload_factory(
        stats, device, passthrough=False, clock=clock,
        sizes=[64, 1024, 4096], pings_per_size=2,
    )

    def factory(vm: GuestVm, index: int):
        if index == 0:
            return base(vm, index)
        return _finite_idle_vcpu(10)

    return factory


# ----------------------------------------------------------------------
# one chaos cell
# ----------------------------------------------------------------------


def run_chaos_case(
    scenario: str,
    plan: FaultPlan,
    seed: int = 0,
    n_cores: int = 6,
    n_vcpus: int = 3,
) -> ChaosOutcome:
    """Run one workload under one fault plan with hardening enabled."""
    if scenario not in CHAOS_SCENARIOS:
        raise SimulationError(f"unknown chaos scenario {scenario!r}")
    config = SystemConfig(
        mode="gapped",
        n_cores=n_cores,
        n_host_cores=1,
        seed=seed,
        trace_schedules=True,
    )
    system = System(config)
    outcome = ChaosOutcome(
        scenario=scenario, plan=plan.name, seed=seed, status="hung"
    )

    injector = FaultInjector(
        plan, system.machine.rng.fork("faults"), system.sim, system.tracer
    )
    injector.attach_gic(system.machine.gic)
    injector.attach_kernel(system.kernel)
    injector.attach_notifier(system.notifier)

    # hardening on, uniformly -- the control plan doubles as a check
    # that the hardened paths do not disturb the fault-free run
    system.notifier.watchdog_ns = us(200)
    system.planner.sync_timeout_ns = ms(2)

    if scenario == "coremark":
        stats = CoremarkStats()
        workload = _finite_coremark_factory(stats, chunks=30, chunk_ns=us(500))
    else:
        stats = NetpipeStats()
        workload = _finite_netpipe_factory(
            stats, "virtio-net0", clock=lambda: system.sim.now
        )
    vm = GuestVm(f"chaos-{scenario}", n_vcpus, workload)

    # guarded launch: admission refusals and transport timeouts are part
    # of the contract (clean host-side failure), not test crashes
    def launch_body():
        try:
            kvm = yield from system.planner.launch_cvm(vm)
        except (AdmissionError, HotplugError, RpcTimeoutError) as exc:
            system.tracer.count("chaos_launch_refused")
            return ("refused", str(exc))
        return ("ok", kvm)

    launcher = HostThread(
        name="chaos-launch",
        body=launch_body(),
        sched_class=SchedClass.FAIR,
        affinity=system.host_cores,
    )
    system.kernel.add_thread(launcher)
    start_ns = system.sim.now
    try:
        system.run_until_event(launcher.done_event, limit_ns=LAUNCH_BUDGET_NS)
    except SimulationError as exc:
        outcome.detail = f"launch hung: {exc}"
        return _finalize(outcome, system, injector, start_ns)

    status, payload = launcher.result
    if status == "refused":
        outcome.status = "refused"
        outcome.detail = payload
        return _finalize(outcome, system, injector, start_ns)

    kvm = payload
    for port in kvm.ports.values():
        injector.attach_port(port)
    injector.attach_engine(system.engine)
    kvm.run_wait_retry = RetryPolicy(ms(1), max_retries=6)
    if scenario == "netpipe":
        device = system.add_virtio_net(kvm, echo_peer=True)
        injector.attach_device(device)
    system.start(kvm)

    try:
        system.run_until_event(kvm.done_event, limit_ns=CASE_BUDGET_NS)
    except SimulationError as exc:
        outcome.detail = f"workload hung: {exc}"
        return _finalize(outcome, system, injector, start_ns, kvm)

    outcome.status = "host_error" if kvm.run_errors else "completed"
    return _finalize(outcome, system, injector, start_ns, kvm)


def _finalize(
    outcome: ChaosOutcome,
    system: System,
    injector: FaultInjector,
    start_ns: int,
    kvm=None,
) -> ChaosOutcome:
    """Post-run bookkeeping + the invariant checks every cell must pass."""
    system.finish()
    outcome.system = system
    outcome.duration_ns = system.sim.now - start_ns
    outcome.injections = dict(injector.injected)
    if kvm is not None:
        outcome.host_errors = [str(err.value) for err in kvm.run_errors]
        outcome.recoveries = {
            "watchdog_polls": system.notifier.watchdog_polls,
            "watchdog_recoveries": system.notifier.watchdog_recoveries,
            "run_retries": kvm.run_retries,
            "run_self_claims": kvm.run_self_claims,
        }

    problems: List[str] = []
    report = CoreGapAuditor().audit(system.machine, system.tracer)
    problems += [f"core-gap: {v}" for v in report.sharing]
    problems += [f"residency: {v}" for v in report.residency]
    problems += audit_conservation(system.tracer, system.sim.now)
    if kvm is not None:
        for port in kvm.ports.values():
            outstanding = port.submit_count - port.complete_count
            if outstanding not in (0, 1) or (
                outstanding == 1 and port.slot.state != "submitted"
            ):
                problems.append(
                    f"port {port.name}: {port.submit_count} submits vs "
                    f"{port.complete_count} completions "
                    f"(slot {port.slot.state!r})"
                )
    outcome.audit_problems = problems
    return outcome


def digest_chaos_outcome(outcome: ChaosOutcome):
    """A :class:`repro.lint.sanitizer.RunDigest` of one chaos run.

    Covers the full schedule trace (records, spans, counters) plus the
    outcome's own observables, so two digests compare bit-identical iff
    the runs were.  Requires ``outcome.system`` (digest where the run
    happened — in the worker, for parallel cells).
    """
    from ..lint.sanitizer import RunDigest

    if outcome.system is None:
        raise SimulationError(
            f"outcome ({outcome.scenario}, {outcome.plan}) has no System "
            "attached; digest it before crossing a process boundary"
        )
    tracer = outcome.system.tracer
    records = [
        f"{r.time}|{r.kind}|{r.core}|{r.domain}|{r.detail}"
        for r in tracer.records
    ]
    spans = [f"{s.core}|{s.domain}|{s.start}|{s.end}" for s in tracer.spans]
    counters = {k: int(v) for k, v in sorted(tracer.counters.items())}
    metrics = {
        "status": outcome.status,
        "detail": outcome.detail,
        "host_errors": outcome.host_errors,
        "injections": dict(sorted(outcome.injections.items())),
        "recoveries": dict(sorted(outcome.recoveries.items())),
        "duration_ns": outcome.duration_ns,
        "end_ns": outcome.system.sim.now,
    }
    return RunDigest(records, spans, counters, metrics)


def _chaos_cell(
    scenario: str,
    plan: FaultPlan,
    seed: int,
    n_cores: int = 6,
    n_vcpus: int = 3,
) -> ChaosOutcome:
    """One matrix cell, shippable across processes: run the case, digest
    the trace where the live System still exists, then strip it (a
    finished System holds generators and cannot pickle)."""
    outcome = run_chaos_case(
        scenario, plan, seed=seed, n_cores=n_cores, n_vcpus=n_vcpus
    )
    outcome.digest = digest_chaos_outcome(outcome)
    outcome.system = None
    return outcome


def chaos_cells(
    seed: int = 0,
    plans: Optional[Sequence[FaultPlan]] = None,
    scenarios: Sequence[str] = CHAOS_SCENARIOS,
) -> List[Cell]:
    """The (plan x scenario) chaos matrix as independent runner cells."""
    return [
        cell(
            f"chaos/{plan.name}/{scenario}",
            _chaos_cell,
            scenario=scenario,
            plan=plan,
            seed=seed,
        )
        for plan in (plans if plans is not None else default_fault_plans())
        for scenario in scenarios
        if scenario in plan_scenarios(plan)
    ]


def run_chaos_matrix(
    seed: int = 0,
    plans: Optional[Sequence[FaultPlan]] = None,
    scenarios: Sequence[str] = CHAOS_SCENARIOS,
    jobs: Optional[int] = None,
) -> List[ChaosOutcome]:
    """Run the full (plan x scenario) chaos matrix.

    Serial or parallel, every outcome carries a precomputed trace
    ``digest`` and no ``system`` — the same contract either way, so
    digest comparisons between ``jobs=1`` and ``jobs=N`` are exact.
    """
    return run_cells(chaos_cells(seed, plans, scenarios), jobs=jobs)


# ---------------------------------------------------------------------------
# hotplug storm: random lifecycle churn under serving load
# ---------------------------------------------------------------------------


@dataclass
class StormOutcome:
    """One hotplug-storm run: lifecycle tallies plus invariant verdicts."""

    seed: int
    rounds: int
    #: operations actually performed, by kind (resize/bounce/evict/admit)
    ops: Dict[str, int] = field(default_factory=dict)
    #: the elastic controller's verb tallies
    counts: Dict[str, int] = field(default_factory=dict)
    audit_problems: List[str] = field(default_factory=list)
    conservation: List[str] = field(default_factory=list)
    conservation_ok: bool = True
    #: per-server digested counter maps + end times
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    end_ns: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return (
            not self.audit_problems
            and not self.conservation
            and self.conservation_ok
        )


def run_hotplug_storm(
    seed: int = 0,
    rounds: int = 12,
    epoch_ns: int = ms(5),
) -> StormOutcome:
    """Random core-hotplug churn (avocado-style) under open-loop serving.

    Every round the storm draws one operation from a seeded stream --
    resize a tenant to a random vCPU count (shrink/park + grow through
    the planner's delegated hotplug path), bounce a random free core
    (host-side offline then online, exactly the avocado CPU-hotplug
    exercise), or evict and re-admit a sacrificial tenant -- then the
    epoch serves on.  After every transition the elastic controller
    re-runs the core-gap audit; at the end the storm asserts request
    conservation and exit/CPU-time accounting on every server.
    """
    from ..fleet.elastic import FleetController, storm_stream
    from ..fleet.spec import ScenarioSpec, redis_tenant, uniform_rack

    spec = ScenarioSpec(
        servers=uniform_rack(
            2,
            SystemConfig(mode="gapped", n_cores=12, n_host_cores=2),
            seed=seed,
        ),
        tenants=(
            redis_tenant("storm-a", n_vcpus=4, rate_rps=3000.0),
            redis_tenant("storm-b", n_vcpus=3, rate_rps=2000.0),
        ),
        duration_ns=(rounds + 1) * epoch_ns,
        seed=seed,
        placement="spread",
    )
    controller = FleetController(spec)
    horizon = spec.duration_ns
    controller.start_serving(horizon)
    rng = storm_stream(seed)
    outcome = StormOutcome(seed=seed, rounds=rounds)
    ops = outcome.ops
    evicted: Optional[str] = None

    for round_index in range(rounds):
        controller.advance_to((round_index + 1) * epoch_ns)
        op = rng.choice(("resize", "resize", "bounce", "churn"))
        if op == "resize":
            name = rng.choice(sorted(controller.where))
            spec_vcpus = controller.tenants[name].vm.n_vcpus
            target = rng.randrange(1, spec_vcpus + 1)
            controller.resize(name, target)
            ops["resize"] = ops.get("resize", 0) + 1
        elif op == "bounce":
            server = controller.fleet.servers[
                rng.randrange(len(controller.fleet.servers))
            ]
            free = server.system.planner.free_cores()
            if not free:
                continue
            core = free[rng.randrange(len(free))]
            fallback = min(server.system.host_cores)
            planner = server.system.planner

            def bounce(planner=planner, core=core, fallback=fallback):
                yield from planner.hotplug.offline(core, fallback)
                yield from planner.hotplug.online(core)

            controller._run_planner(server, f"storm-bounce:{core}", bounce())
            controller.audit_transitions(server, f"bounce:{core}")
            ops["bounce"] = ops.get("bounce", 0) + 1
        else:  # churn: evict a tenant, re-admit it next time around
            if evicted is None:
                name = rng.choice(sorted(controller.where))
                controller.evict(name, drain_ns=ms(2), reason="storm")
                evicted = name
            else:
                window = horizon - controller.t_ns
                if window > 0:
                    controller.admit(
                        controller.tenants[evicted], window_ns=window
                    )
                evicted = None
            ops["churn"] = ops.get("churn", 0) + 1

    controller.advance_to(horizon)
    controller.finish()
    result = controller.outcome()
    outcome.counts = result.counts
    outcome.audit_problems = list(result.audit_problems)
    outcome.conservation_ok = result.conservation_ok
    for server in controller.fleet.servers:
        system = server.system
        outcome.conservation.extend(
            f"server{server.index}: {problem}"
            for problem in audit_conservation(system.tracer, system.sim.now)
        )
    outcome.counters = result.counters
    outcome.end_ns = result.end_ns
    return outcome


def storm_cells(seeds: Sequence[int] = (0, 1, 2)) -> List[Cell]:
    """Hotplug-storm smoke matrix: one cell per seed."""
    return [
        cell(f"storm/seed{seed}", run_hotplug_storm, seed=seed)
        for seed in seeds
    ]


def run_storm_matrix(
    seeds: Sequence[int] = (0, 1, 2), jobs: Optional[int] = None
) -> List[StormOutcome]:
    return run_cells(storm_cells(seeds), jobs=jobs)
