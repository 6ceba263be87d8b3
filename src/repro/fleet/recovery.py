"""The fleet recovery supervisor: checkpoint during traffic, restore on
failure, keep the books straight across the boundary.

A server under a :class:`~repro.faults.FaultPlan` can die mid-serving
(a dedicated core stalls and retries exhaust, the engine deadlocks).
The supervisor drives serving in checkpoint-period chunks, taking a
:func:`repro.snap.snapshot` after each clean chunk.  When a chunk ends
in failure it restores the last checkpoint -- rebuilding the server
from its spec and seed and replaying to the checkpoint instant, which
the snapshot verifies bit-identically -- then *detaches the fault
plan* (the faulty machine was replaced) and resumes serving from the
checkpoint.

The restore boundary is where recovery accounting usually goes wrong,
so the supervisor pins three invariants:

* **conservation** -- offered == completed + dropped per tenant, with
  the replayed window counted exactly once (the rollback discards the
  failed timeline entirely; requests in it are re-issued by the same
  arrival draws on replay);
* **SLO honesty** -- completions that land inside a recovery window
  (checkpoint to failure, plus the modelled restore penalty) are
  charged against tenant SLOs via
  ``fleet_recovery_slo_violation_count``; downtime itself is published
  as ``fleet_recovery_downtime_ns``;
* **audit cleanliness** -- :func:`audit_server` re-runs the core-gap
  and conservation audits on the final (possibly restored) timeline,
  so a restore can never launder an isolation violation.

All recovery metrics are gauges: a supervised fault-free run stays
digest-identical to :func:`~repro.fleet.scenario.run_server`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..costs import CostModel, DEFAULT_COSTS
from ..faults import FaultInjector, FaultPlan
from ..security import CoreGapAuditor, audit_conservation
from ..sim.clock import ms, us
from ..sim.engine import SimulationError
from ..sim.timeout import RetryPolicy
from ..snap import Recipe, Snapshot, snapshot, restore
from .placement import Placement
from .scenario import (
    BootedServer,
    TenantResult,
    boot_server,
    drain_and_finish,
    tenant_results,
)
from .spec import ScenarioSpec

__all__ = [
    "RecoveryPolicy",
    "RecoveryError",
    "RestoreEvent",
    "RecoveryReport",
    "build_recoverable_server",
    "run_server_with_recovery",
    "audit_server",
]


class RecoveryError(SimulationError):
    """The supervisor could not bring the server back within policy."""


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the supervisor checkpoints and restores one server."""

    #: simulated time between checkpoints while serving
    checkpoint_period_ns: int
    #: modelled wall-time cost of a restore (counts as downtime)
    restore_penalty_ns: int = 0
    #: restores allowed before the server is declared unrecoverable
    max_restores: int = 3
    #: verify each restore bit-identically against its checkpoint
    verify_restore: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_period_ns <= 0:
            raise SimulationError(
                f"non-positive checkpoint period: {self.checkpoint_period_ns}"
            )
        if self.restore_penalty_ns < 0:
            raise SimulationError(
                f"negative restore penalty: {self.restore_penalty_ns}"
            )
        if self.max_restores < 0:
            raise SimulationError(f"negative max_restores: {self.max_restores}")


@dataclass(frozen=True)
class RestoreEvent:
    """One failure-and-restore of a supervised server."""

    failed_at_ns: int
    checkpoint_ns: int
    reason: str
    #: simulated progress discarded by the rollback
    lost_ns: int
    #: lost progress plus the policy's restore penalty
    downtime_ns: int


@dataclass
class RecoveryReport:
    """Outcome of one supervised serving run."""

    tenants: List[TenantResult] = field(default_factory=list)
    restores: List[RestoreEvent] = field(default_factory=list)
    checkpoints: int = 0
    recovery_slo_violations: int = 0
    audit_problems: List[str] = field(default_factory=list)
    #: the final (possibly restored) server, for inspection; not
    #: picklable once finished (live generators)
    server: Optional[BootedServer] = field(
        default=None, repr=False, compare=False
    )

    @property
    def downtime_ns(self) -> int:
        return sum(event.downtime_ns for event in self.restores)

    @property
    def recovered(self) -> bool:
        return not self.audit_problems


def build_recoverable_server(
    spec: ScenarioSpec,
    placement: Placement,
    server_index: int,
    plan: Optional[FaultPlan] = None,
    costs: CostModel = DEFAULT_COSTS,
) -> Tuple[BootedServer, Optional[FaultInjector]]:
    """Boot one server, wire the fault plan + hardening, start traffic.

    This is the supervisor's *recipe body*: called with the same
    arguments it reproduces the same booted state bit-for-bit, which is
    what makes checkpoint-by-re-execution restores verifiable.  With no
    plan (or an empty one) the boot is exactly
    :func:`~repro.fleet.scenario.boot_server` plus ``client.start`` --
    no hardening, no injector -- so a supervised fault-free run stays
    digest-identical to the plain path.
    """
    server = boot_server(spec, placement, server_index, costs)
    system = server.system
    injector: Optional[FaultInjector] = None
    if plan is not None and plan.specs:
        injector = FaultInjector(
            plan, system.machine.rng.fork("faults"), system.sim, system.tracer
        )
        injector.attach_gic(system.machine.gic)
        injector.attach_kernel(system.kernel)
        injector.attach_notifier(system.notifier)
        for kvm in system.kvms:
            for port in kvm.ports.values():
                injector.attach_port(port)
            kvm.run_wait_retry = RetryPolicy(
                ms(1),
                max_retries=6,
                jitter=0.1,
                rng=system.machine.rng.stream("retry:kvm-run"),
            )
        injector.attach_engine(system.engine)
        for booted in server.vms:
            for device in booted.devices.values():
                if hasattr(device, "completion_fault_hook"):
                    injector.attach_device(device)
        # hardening on, as in the chaos harness: faults must surface as
        # bounded host-side errors the supervisor can see, never hangs
        system.notifier.watchdog_ns = us(200)
        system.planner.sync_timeout_ns = ms(2)
    for client in server.clients:
        client.start(spec.duration_ns)
    return server, injector


def _failure_reason(server: BootedServer) -> Optional[str]:
    """Why this server counts as failed, or None while healthy."""
    system = server.system
    for index, core in sorted(system.engine.dedicated.items()):
        if core.failed:
            return f"dead dedicated core {index}"
    for kvm in system.kvms:
        if kvm.run_errors:
            return (
                f"{kvm.vm.name}: {len(kvm.run_errors)} run error(s): "
                f"{kvm.run_errors[-1].value}"
            )
    return None


def _extra_state(
    server: BootedServer, injector: Optional[FaultInjector]
) -> Dict[str, Any]:
    """Fleet-owned state the System capture cannot reach."""
    return {"clients": server.clients, "injector": injector}


def audit_server(server: BootedServer) -> List[str]:
    """Core-gap + conservation audit of a (finished) server."""
    system = server.system
    report = CoreGapAuditor().audit(system.machine, system.tracer)
    problems = [f"core-gap: {v}" for v in report.sharing]
    problems += [f"residency: {v}" for v in report.residency]
    problems += audit_conservation(system.tracer, system.sim.now)
    return problems


def run_server_with_recovery(
    spec: ScenarioSpec,
    placement: Placement,
    server_index: int,
    policy: RecoveryPolicy,
    plan: Optional[FaultPlan] = None,
    costs: CostModel = DEFAULT_COSTS,
) -> RecoveryReport:
    """Serve one server under supervision: checkpoint, restore, account.

    Drives ``spec.duration_ns`` of traffic in checkpoint-period chunks.
    A chunk that ends with the server failed (dead dedicated core, run
    errors, engine deadlock) triggers a restore from the last clean
    checkpoint; the failed timeline is discarded and replayed without
    the fault plan attached.  The drain / finish / result tail is the
    plain :func:`~repro.fleet.scenario.run_server` tail, so tenant
    results and conservation read identically either way.
    """
    state: Dict[str, Any] = {}

    def build() -> Any:
        server, injector = build_recoverable_server(
            spec, placement, server_index, plan, costs
        )
        state["server"], state["injector"] = server, injector
        return server.system

    recipe = Recipe(build=build)
    system = build()
    report = RecoveryReport()
    serve_end = system.sim.now + spec.duration_ns

    checkpoint: Snapshot = snapshot(
        system,
        recipe=recipe,
        label=f"boot@t={system.sim.now}",
        extra=_extra_state(state["server"], state["injector"]),
    )
    report.checkpoints += 1

    while system.sim.now < serve_end:
        target = min(system.sim.now + policy.checkpoint_period_ns, serve_end)
        reason: Optional[str] = None
        try:
            system.run_for(target - system.sim.now)
        except SimulationError as exc:
            reason = f"engine: {exc}"
        reason = reason or _failure_reason(state["server"])
        if reason is None:
            checkpoint = snapshot(
                system,
                recipe=recipe,
                label=f"ckpt-{report.checkpoints}@t={system.sim.now}",
                extra=_extra_state(state["server"], state["injector"]),
            )
            report.checkpoints += 1
            continue

        if len(report.restores) >= policy.max_restores:
            raise RecoveryError(
                f"server {server_index} failed ({reason}) after "
                f"{policy.max_restores} restore(s); giving up"
            )
        failed_at = system.sim.now
        system = restore(
            checkpoint,
            verify=policy.verify_restore,
            extra_fn=lambda _system: _extra_state(
                state["server"], state["injector"]
            ),
        )
        injector = state["injector"]
        if injector is not None:
            # the replayed timeline re-injected history faithfully up to
            # the checkpoint; from here the faulty part is replaced
            injector.detach_all()
        lost = failed_at - checkpoint.taken_at_ns
        report.restores.append(
            RestoreEvent(
                failed_at_ns=failed_at,
                checkpoint_ns=checkpoint.taken_at_ns,
                reason=reason,
                lost_ns=lost,
                downtime_ns=lost + policy.restore_penalty_ns,
            )
        )

    server = state["server"]
    drain_and_finish(server, spec)
    report.tenants = tenant_results(server)
    report.server = server

    # completions inside a recovery window are SLO casualties: the
    # tenant saw the outage even though the replayed timeline served
    # them cleanly
    violations = 0
    for event in report.restores:
        low = event.checkpoint_ns
        high = event.failed_at_ns + policy.restore_penalty_ns
        for client in server.clients:
            violations += sum(
                1 for when in client.stats.completed_at_ns if low <= when <= high
            )
    report.recovery_slo_violations = violations

    metrics = server.system.metrics
    metrics.gauge("snap_checkpoint_count").set(report.checkpoints)
    metrics.gauge("fleet_restore_count").set(len(report.restores))
    metrics.gauge("fleet_recovery_downtime_ns").set(report.downtime_ns)
    metrics.gauge("fleet_recovery_slo_violation_count").set(violations)

    report.audit_problems = audit_server(server)
    return report
