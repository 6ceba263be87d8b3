"""The fault injector: wiring a :class:`FaultPlan` into a live system.

Every fault site in the simulator is an optional hook that defaults to
``None`` (zero behavioural change when no injector is attached).  The
injector installs closures on those hooks and makes all probabilistic
decisions through per-spec :mod:`repro.sim.rng` streams, keyed by the
spec's index within the plan -- so adding a spec never perturbs the
draws of existing ones, and (plan, seed) replays bit-identically.

Fault sites (and the hook each attach method installs):

==================  ====================================================
``attach_gic``      ``Gic.sgi_fault_hook`` -- drop / delay / duplicate
                    SGIs on the wire
``attach_port``     ``AsyncRpcPort.completion_fault`` -- stall or
                    corrupt the exit record's publication
``attach_notifier`` ``ExitNotifier.stall_hook`` -- stall the wake-up
                    thread before its slot scan
``attach_kernel``   ``HostKernel.fault_hooks["hotplug"]`` -- abort a
                    hotplug transition mid-way
``attach_device``   ``VirtioBackend.completion_fault_hook`` -- delay a
                    virtio completion
``attach_engine``   ``DedicatedCore.fail_after_runs`` -- hard-stall a
                    dedicated core after N run calls
==================  ====================================================
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..rmm.rmi import RmiResult, RmiStatus
from ..sim.rng import RngFactory
from .plan import FaultKind, FaultPlan, FaultSpec

__all__ = ["FaultInjector"]


class FaultInjector:
    """Executes a :class:`FaultPlan` against a running system."""

    def __init__(self, plan: FaultPlan, rng: RngFactory, sim, tracer=None):
        self.plan = plan
        self.sim = sim
        self.tracer = tracer
        #: total injections by fault kind (observability + test asserts)
        self.injected: Dict[str, int] = {}
        self._counts: Dict[int, int] = {}
        self._streams = {
            index: rng.stream(f"fault:{plan.name}:{index}:{spec.kind}")
            for index, spec in enumerate(plan.specs)
        }
        self._gic = None
        #: undo closures, one per installed hook, so :meth:`detach_all`
        #: can model "the faulty machine was replaced" after a restore
        self._attached: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # decision machinery
    # ------------------------------------------------------------------

    def _fires(self, index: int, spec: FaultSpec) -> bool:
        if not spec.active_at(self.sim.now):
            return False
        if spec.count is not None and self._counts.get(index, 0) >= spec.count:
            return False
        if spec.rate < 1.0 and self._streams[index].random() >= spec.rate:
            return False
        return True

    def _record(self, index: int, spec: FaultSpec) -> None:
        self._counts[index] = self._counts.get(index, 0) + 1
        self.injected[spec.kind] = self.injected.get(spec.kind, 0) + 1
        if self.tracer is not None:
            self.tracer.count(f"fault:{spec.kind}")
            self.tracer.set_gauge("faults_injected_count", self.total_injected)
            if self.tracer.enabled:
                self.tracer.event(
                    self.sim.now, "fault.inject", detail=spec.kind
                )

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    # ------------------------------------------------------------------
    # attach points
    # ------------------------------------------------------------------

    def attach_gic(self, gic) -> None:
        self._gic = gic
        gic.sgi_fault_hook = self._sgi_hook
        self._attached.append(lambda: setattr(gic, "sgi_fault_hook", None))

    def _sgi_hook(self, target_core: int, intid: int) -> Optional[List[int]]:
        for index, spec in self.plan.of_kind(
            FaultKind.IPI_DROP, FaultKind.IPI_DELAY, FaultKind.IPI_DUPLICATE
        ):
            if spec.intids is not None and intid not in spec.intids:
                continue
            if spec.target is not None and target_core != spec.target:
                continue
            if not self._fires(index, spec):
                continue
            self._record(index, spec)
            wire = self._gic.wire_delay_ns
            if spec.kind == FaultKind.IPI_DROP:
                return []
            if spec.kind == FaultKind.IPI_DELAY:
                return [wire + spec.delay_ns]
            return [wire, wire + max(spec.delay_ns, 1)]
        return None

    def attach_port(self, port) -> None:
        port.completion_fault = self._completion_hook
        self._attached.append(lambda: setattr(port, "completion_fault", None))

    def _completion_hook(self, port, result) -> Tuple[int, object]:
        for index, spec in self.plan.of_kind(
            FaultKind.RPC_COMPLETION_STALL, FaultKind.RPC_COMPLETION_CORRUPT
        ):
            if spec.port_substr is not None and spec.port_substr not in port.name:
                continue
            if not self._fires(index, spec):
                continue
            self._record(index, spec)
            if spec.kind == FaultKind.RPC_COMPLETION_STALL:
                return (spec.delay_ns, result)
            # a corrupted slot surfaces through the host's existing
            # run-error path (invariant #2: host-visible, never
            # guest-visible)
            return (
                0,
                RmiResult(
                    RmiStatus.ERROR_INPUT,
                    f"corrupted completion slot on {port.name} "
                    f"(fault injection)",
                ),
            )
        return (0, result)

    def attach_notifier(self, notifier) -> None:
        notifier.stall_hook = self._wakeup_stall_hook
        self._attached.append(lambda: setattr(notifier, "stall_hook", None))

    def _wakeup_stall_hook(self) -> int:
        total = 0
        for index, spec in self.plan.of_kind(FaultKind.WAKEUP_STALL):
            if self._fires(index, spec):
                self._record(index, spec)
                total += spec.delay_ns
        return total

    def attach_kernel(self, kernel) -> None:
        kernel.fault_hooks["hotplug"] = self._hotplug_hook
        self._attached.append(
            lambda: kernel.fault_hooks.pop("hotplug", None)
        )

    def _hotplug_hook(self, direction: str, core_index: int) -> bool:
        for index, spec in self.plan.of_kind(FaultKind.HOTPLUG_ABORT):
            if spec.target is not None and core_index != spec.target:
                continue
            if not self._fires(index, spec):
                continue
            self._record(index, spec)
            return True
        return False

    def attach_device(self, backend) -> None:
        backend.completion_fault_hook = self._virtio_hook
        self._attached.append(
            lambda: setattr(backend, "completion_fault_hook", None)
        )

    def _virtio_hook(self, kind: str, vcpu_idx: int, request) -> int:
        total = 0
        for index, spec in self.plan.of_kind(FaultKind.VIRTIO_COMPLETION_DELAY):
            if spec.target is not None and vcpu_idx != spec.target:
                continue
            if self._fires(index, spec):
                self._record(index, spec)
                total += spec.delay_ns
        return total

    def attach_engine(self, engine) -> None:
        """Arm dedicated-core stalls.  Call *after* cores are dedicated
        (e.g. after ``System.launch``): the stall is armed on the spec's
        target core, or the lowest dedicated core when unscoped."""
        for index, spec in self.plan.of_kind(FaultKind.CORE_STALL):
            cores = sorted(engine.dedicated)
            if not cores:
                continue
            target = spec.target if spec.target in engine.dedicated else cores[0]
            core = engine.dedicated[target]
            core.fail_after_runs = (
                spec.after_runs if spec.after_runs is not None else 0
            )
            self._attached.append(
                lambda core=core: setattr(core, "fail_after_runs", None)
            )
            self._record(index, spec)

    # ------------------------------------------------------------------

    def detach_all(self) -> None:
        """Uninstall every hook and disarm pending core stalls.

        The recovery supervisor calls this after replaying a restored
        server to its checkpoint: the restored run is the same machine
        with the faulty part replaced, so already-injected faults stay
        in history but no new ones fire.  Idempotent.
        """
        for undo in self._attached:
            undo()
        self._attached.clear()
