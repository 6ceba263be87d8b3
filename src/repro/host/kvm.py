"""KVM: the host hypervisor's vCPU execution paths.

Three modes, matching the paper's evaluation matrix:

* ``SHARED`` -- the paper's baseline: a traditional non-confidential VM.
  The vCPU thread runs guest code on whatever core the host scheduler
  gives it; every exit (timer, IPI, MMIO, WFI, physical interrupt) is
  handled *on that same core*, polluting the guest's microarchitectural
  state and sharing it with the host.
* ``SHARED_CVM`` -- a shared-core *confidential* VM (what the paper
  could not measure without RME hardware, S5.1): same structure, but
  every trust-boundary crossing pays world switches plus mitigation
  flushes, and flushes leave the core cold.
* ``GAPPED`` -- core-gapped CVM: the vCPU thread only issues run calls
  over the async RPC port and handles exits remotely; guest execution
  happens on the dedicated core (:mod:`repro.rmm.core_gap`).  With
  ``busywait=True`` the thread polls its completion slot instead of
  blocking (the Quarantine-style ablation of fig. 6).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..costs import CostModel, DEFAULT_COSTS
from ..guest.actions import (
    Compute,
    DeviceDoorbell,
    MmioRead,
    MmioWrite,
    PowerOff,
    SendIpi,
    SetTimer,
    Wfi,
)
from ..guest.vcpu import VIPI_VIRQ, VTIMER_VIRQ
from ..guest.vm import GuestVm
from ..hw.policy import IsolationPolicy, resolve_policy
from ..rmm.core_gap import CoreGapEngine, HOST_KICK_SGI, RunCall
from ..rmm.rmi import ExitReason, RecRunPage, RmiResult, RmiStatus
from ..sim.engine import Event, SimulationError
from ..sim.timeout import TIMED_OUT, RetryPolicy, with_timeout
from .kernel import HostKernel, RESCHED_SGI
from .threads import HostThread, SchedClass, TBlock, TCompute, TYield
from .wakeup import ExitNotifier

__all__ = ["VmMode", "KvmVm"]


class VmMode:
    SHARED = "shared"
    SHARED_CVM = "shared-cvm"
    GAPPED = "gapped"


class KvmVm:
    """Host-side state and threads for one VM."""

    def __init__(
        self,
        kernel: HostKernel,
        vm: GuestVm,
        mode: str,
        host_cores: Set[int],
        costs: CostModel = DEFAULT_COSTS,
        notifier: Optional[ExitNotifier] = None,
        engine: Optional[CoreGapEngine] = None,
        realm_id: Optional[int] = None,
        busywait: bool = False,
        policy: Optional[IsolationPolicy] = None,
    ):
        self.kernel = kernel
        self.machine = kernel.machine
        self.sim = kernel.sim
        self.tracer = kernel.tracer
        self.vm = vm
        self.mode = mode
        #: isolation policy driving exit costs and switch-time scrubbing;
        #: defaults to what the mode always implied (repro.hw.policy)
        self.policy = policy if policy is not None else resolve_policy(mode)
        self.costs = costs
        self.host_cores = set(host_cores)
        self.notifier = notifier
        self.engine = engine
        self.realm_id = realm_id
        self.busywait = busywait
        self._injections: Dict[int, List[Tuple[int, Any]]] = {
            i: [] for i in range(vm.n_vcpus)
        }
        self._wfi_events: Dict[int, Event] = {}
        self._mmio_data: Dict[int, Any] = {}
        self.ports: Dict[int, Any] = {}
        self.threads: Dict[int, HostThread] = {}
        self.finished_vcpus = 0
        #: set by the planner as it starts destroying the realm; from
        #: then on device and timer interrupts are dropped, never
        #: injected into RECs that may already be gone
        self.torn_down = False
        self.done_event = Event(f"vm-done:{vm.name}")
        self.run_errors: List[RmiResult] = []
        #: bounded-retry policy for async run-call waits (gapped mode):
        #: None (default) keeps the paper's unbounded TBlock.  When set,
        #: each wait is raced against a timeout; on expiry the thread
        #: re-checks its slot (self-claiming a completion whose exit IPI
        #: was lost), re-kicks the dedicated core if an injection is
        #: pending, and backs off exponentially.  Exhaustion surfaces a
        #: host-side run error -- never a guest-visible one.
        self.run_wait_retry: Optional[RetryPolicy] = None
        self.run_retries = 0
        self.run_self_claims = 0
        #: vCPU index -> dedicated core chosen by the planner (gapped)
        self.planned_cores: Dict[int, int] = {}
        #: vCPU index -> (acked, resume) pause handshake (gapped)
        self._pause_requests: Dict[int, Tuple[Event, Event]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn one vCPU thread per guest vCPU."""
        for idx in range(self.vm.n_vcpus):
            if self.mode == VmMode.GAPPED:
                body = self._vcpu_body_gapped(idx)
                sched_class = (
                    SchedClass.FAIR if self.busywait else SchedClass.FIFO
                )
            else:
                body = self._vcpu_body_shared(idx)
                sched_class = SchedClass.FAIR
            thread = HostThread(
                name=f"kvm-vcpu:{self.vm.name}.{idx}",
                body=body,
                sched_class=sched_class,
                affinity=self.host_cores,
            )
            self.threads[idx] = thread
            self.kernel.add_thread(thread)

    def _vcpu_finished(self) -> None:
        self.finished_vcpus += 1
        if self.finished_vcpus == self.vm.n_vcpus:
            self.done_event.fire(self.sim.now)

    # ------------------------------------------------------------------
    # interrupt injection into the guest (host-initiated)
    # ------------------------------------------------------------------

    def inject_virq(self, vcpu_idx: int, intid: int, payload: Any = None) -> None:
        """Queue a virtual interrupt for a guest vCPU and kick it.

        Every device, timer and vIPI injects through here, so a
        torn-down VM's devices stop injecting at this one point.
        """
        if self.torn_down:
            return
        self._injections[vcpu_idx].append((intid, payload))
        self.tracer.count("host_virq_inject")
        if self.mode == VmMode.GAPPED:
            port = self.ports.get(vcpu_idx)
            rec = self.engine.rmm.find_rec(self.realm_id, vcpu_idx)
            if (
                port is not None
                and port.slot.state == "submitted"
                and rec.bound_core is not None
            ):
                # the vCPU is (potentially) running on its dedicated
                # core: ask the RMM to exit it (S4.4 fig. 5, host kick)
                self.machine.gic.send_sgi(rec.bound_core, HOST_KICK_SGI)
        else:
            wfi_event = self._wfi_events.get(vcpu_idx)
            if wfi_event is not None and not wfi_event.fired:
                wfi_event.fire(None)
                return
            thread = self.threads.get(vcpu_idx)
            if thread is not None and thread.last_core is not None:
                # reschedule IPI forces a VM exit if the guest is on-core
                self.machine.gic.send_sgi(thread.last_core, RESCHED_SGI)

    def pause_vcpu(self, vcpu_idx: int) -> Tuple[Event, Event]:
        """Park a gapped vCPU thread between run calls (for rebinding).

        Returns ``(acked, resume)``: ``acked`` fires once the vCPU has
        exited and its thread is parked (the REC is READY); fire
        ``resume`` to let it run again.
        """
        if self.mode != VmMode.GAPPED:
            raise SimulationError("pause_vcpu is for core-gapped VMs")
        acked = Event(f"pause-ack:{self.vm.name}.{vcpu_idx}")
        resume = Event(f"resume:{self.vm.name}.{vcpu_idx}")
        self._pause_requests[vcpu_idx] = (acked, resume)
        port = self.ports.get(vcpu_idx)
        rec = self.engine.rmm.find_rec(self.realm_id, vcpu_idx)
        if (
            port is not None
            and port.slot.state == "submitted"
            and rec.bound_core is not None
        ):
            self.machine.gic.send_sgi(rec.bound_core, HOST_KICK_SGI)
        return acked, resume

    def _program_guest_timer(self, vcpu_idx: int, delta_ns: int) -> None:
        """KVM-side hrtimer for an undelegated guest timer."""

        def fire() -> None:
            if self.finished_vcpus < self.vm.n_vcpus:
                self.inject_virq(vcpu_idx, VTIMER_VIRQ)

        self.sim.schedule(delta_ns, fire)

    def _drain_injections(self, vcpu_idx: int) -> List[Tuple[int, Any]]:
        injections = self._injections[vcpu_idx]
        self._injections[vcpu_idx] = []
        return injections

    def _count_exit(self, reason: str) -> None:
        self.tracer.count(f"exit:{reason}")
        self.tracer.count("exits_total")
        if self.tracer.enabled:
            # host-side exit handling runs on whichever host core the
            # thread lands on; the record carries no core affinity
            self.tracer.event(self.sim.now, "exit", detail=reason)

    # ------------------------------------------------------------------
    # core-gapped vCPU thread (fig. 4 client side)
    # ------------------------------------------------------------------

    def _vcpu_body_gapped(self, idx: int):
        costs = self.costs
        port = self.ports[idx]
        page = RecRunPage()
        last_return: Optional[int] = None

        while True:
            pause = self._pause_requests.get(idx)
            if pause is not None:
                acked, resume = pause
                if not acked.fired:
                    acked.fire(None)
                yield TBlock(resume)
                self._pause_requests.pop(idx, None)
            page.entry.interrupt_list = self._drain_injections(idx)
            page.entry.mmio_data = self._mmio_data.pop(idx, None)
            yield TCompute(costs.rpc_write_ns)
            if last_return is not None:
                # run-to-run latency (S4.3): from the vCPU exit event
                # (the RMM completing the previous run call) to issuing
                # the next run call
                self.tracer.sample(
                    "run_to_run_ns", self.sim.now - last_return
                )
            slot = port.submit(
                RunCall(port, self.realm_id, idx, page)
            )
            target = self._dedicated_inbox(idx)
            target.try_put(slot.payload)

            if self.busywait:
                # Quarantine-style yield-polling (fig. 6 ablation): the
                # thread stays always-runnable, competing with every
                # other poller and I/O thread; under a CFS-like host
                # scheduler each turn costs a full min-granularity slice
                while not slot.completed:
                    yield TCompute(costs.busywait_yield_slice_ns)
                    yield TYield()
            elif self.run_wait_retry is None:
                yield TBlock(slot.claimed)
            else:
                claimed = yield from self._guarded_wait(idx, port, slot)
                if not claimed:
                    # retry budget exhausted: the dedicated core is gone
                    # (or the transport is); fail this vCPU host-side
                    self.tracer.count("runwait_exhausted")
                    self.run_errors.append(
                        RmiResult(
                            RmiStatus.ERROR_INPUT,
                            f"vcpu {idx}: run call unanswered after "
                            f"{self.run_wait_retry.max_retries} retries",
                        )
                    )
                    self._vcpu_finished()
                    return
            yield TCompute(costs.rpc_read_ns)
            result = port.collect()
            last_return = port.slot.completed_at

            if isinstance(result, RmiResult):
                self.run_errors.append(result)
                self._vcpu_finished()
                return
            rec_exit = result.exit
            yield TCompute(
                costs.kvm_exit_handle_ns + costs.kvm_realm_exit_loop_ns
            )
            reason = rec_exit.reason

            if reason in (ExitReason.WORKLOAD_DONE, ExitReason.PSCI_OFF):
                self._count_exit(reason.value)
                self._vcpu_finished()
                return
            if reason is ExitReason.TIMER:
                self._program_guest_timer(idx, rec_exit.timer_delta_ns)
            elif reason is ExitReason.IPI_REQUEST:
                yield TCompute(costs.kvm_ipi_emulation_ns)
                self.inject_virq(
                    rec_exit.ipi_target, VIPI_VIRQ, rec_exit.ipi_payload
                )
            elif reason is ExitReason.MMIO_WRITE:
                yield TCompute(costs.vmm_mmio_dispatch_ns)
                device = self.vm.device(rec_exit.device)
                device.submit_from_host(idx, rec_exit.request)
            elif reason is ExitReason.MMIO_READ:
                yield TCompute(costs.vmm_mmio_dispatch_ns)
                device = self.vm.device(rec_exit.device)
                self._mmio_data[idx] = device.read_register()
            elif reason in (ExitReason.HOST_KICK, ExitReason.IRQ):
                pass  # injections are drained at the top of the loop

    def _guarded_wait(self, idx: int, port, slot):
        """Bounded-retry wait on a run-call completion (hardening).

        Thread-body generator; returns True once the completion is
        claimed, False when the retry budget is exhausted.  Handles the
        two lost-IPI shapes: a completed-but-unnotified slot is claimed
        directly, and a lost *host kick* (injection pending while the
        guest runs on) is re-sent.
        """
        policy = self.run_wait_retry
        for attempt, timeout_ns in enumerate(policy.timeouts()):
            guarded = with_timeout(
                self.sim, slot.claimed, timeout_ns,
                name=f"runwait:{port.name}",
            )
            value = yield TBlock(guarded)
            if value is not TIMED_OUT:
                return True
            self.run_retries += 1
            self.tracer.count("runwait_retry")
            yield TCompute(self.costs.wakeup_scan_slot_ns)
            if slot.claimed.fired:
                return True
            if slot.completed:
                # the exit record is published but the exit IPI (or the
                # wake-up thread) went missing: claim it ourselves
                self.run_self_claims += 1
                self.tracer.count("runwait_self_claim")
                slot.claimed.fire(slot.result)
                return True
            if self._injections[idx]:
                # our earlier host kick may have been dropped while the
                # guest keeps running: kick again
                rec = self.engine.rmm.find_rec(self.realm_id, idx)
                if rec.bound_core is not None:
                    self.tracer.count("runwait_rekick")
                    self.machine.gic.send_sgi(rec.bound_core, HOST_KICK_SGI)
        return False

    def _dedicated_inbox(self, idx: int):
        rec = self.engine.rmm.find_rec(self.realm_id, idx)
        if rec.bound_core is not None:
            return self.engine.dedicated[rec.bound_core].inbox
        # first dispatch: the planner assigned this vCPU a core
        core_index = self.planned_cores[idx]
        return self.engine.dedicated[core_index].inbox

    # ------------------------------------------------------------------
    # shared-core vCPU thread (baseline VM / extrapolated shared CVM)
    # ------------------------------------------------------------------

    def _exit_cost_userspace(self) -> int:
        if self.mode == VmMode.SHARED_CVM:
            return (
                self.policy.world_switch_round_trip_ns(
                    self.costs.world_switch
                )
                + self.costs.kvm_exit_handle_ns
            )
        return (
            self.costs.vmentry_exit_hw_ns
            + self.policy.switch_flush_ns()
            + self.costs.kvm_exit_handle_ns
        )

    def _exit_cost_inkernel(self) -> int:
        if self.mode == VmMode.SHARED_CVM:
            return (
                self.policy.world_switch_round_trip_ns(
                    self.costs.world_switch
                )
                + 400
            )
        return self.costs.vmentry_exit_hw_ns + self.policy.switch_flush_ns() + 400

    def _note_cvm_flush(self, idx: int) -> None:
        """Exits under a flush-on-switch policy scrub microarchitectural
        state: both the refill-cost accounting and the actual tagged
        structures (so the residency auditor sees what the mitigation
        achieves)."""
        if not self.policy.flush_on_switch:
            return
        thread = self.threads.get(idx)
        if thread is not None and thread.last_core is not None:
            self.policy.on_switch(self.machine.core(thread.last_core))

    def _vcpu_body_shared(self, idx: int):
        costs = self.costs
        runtime = self.vm.vcpu(idx)
        gen = runtime.run()
        guest_domain = self.vm.domain
        to_send: Any = None

        while True:
            try:
                action = gen.send(to_send)
            except StopIteration:
                self._vcpu_finished()
                return
            to_send = None

            if isinstance(action, Compute):
                remaining = action.work_ns
                while True:
                    remaining = yield TCompute(
                        remaining, domain=guest_domain, return_on_irq=True
                    )
                    if remaining <= 0:
                        break
                    # physical interrupt: VM exit, host handles it here
                    self._count_exit("irq")
                    self._note_cvm_flush(idx)
                    yield TCompute(self._exit_cost_inkernel())
                    if self._injections[idx]:
                        break
                self._deliver_injections(idx)
                to_send = max(0, remaining)

            elif isinstance(action, SetTimer):
                self._count_exit("timer")
                self._note_cvm_flush(idx)
                yield TCompute(self._exit_cost_inkernel())
                self._program_guest_timer(idx, action.delta_ns)

            elif isinstance(action, SendIpi):
                self._count_exit("ipi")
                self._note_cvm_flush(idx)
                payload = self._make_vipi_payload()
                yield TCompute(
                    self._exit_cost_inkernel() + costs.kvm_ipi_emulation_ns
                )
                self.inject_virq(action.target_vcpu, VIPI_VIRQ, payload)

            elif isinstance(action, (MmioRead, MmioWrite)):
                is_read = isinstance(action, MmioRead)
                self._count_exit("mmio_read" if is_read else "mmio_write")
                self._note_cvm_flush(idx)
                yield TCompute(
                    self._exit_cost_userspace() + costs.vmm_mmio_dispatch_ns
                )
                device = self.vm.device(action.device)
                if is_read:
                    to_send = device.read_register()
                else:
                    device.submit_from_host(idx, action.request)
                self._deliver_injections(idx)

            elif isinstance(action, DeviceDoorbell):
                device = self.vm.device(action.device)
                device.guest_doorbell(runtime, action.request)

            elif isinstance(action, Wfi):
                self._count_exit("wfi")
                self._note_cvm_flush(idx)
                yield TCompute(
                    self._exit_cost_inkernel() + costs.kvm_wfi_handle_ns
                )
                while True:
                    self._deliver_injections(idx)
                    if runtime.has_pending_virq():
                        break
                    event = Event(f"wfi:{self.vm.name}.{idx}")
                    self._wfi_events[idx] = event
                    if self._injections[idx]:
                        self._wfi_events.pop(idx, None)
                        continue
                    yield TBlock(event)
                    self._wfi_events.pop(idx, None)
                # re-entry after idle
                yield TCompute(self._exit_cost_inkernel())

            elif isinstance(action, PowerOff):
                self._count_exit("psci_off")
                self._vcpu_finished()
                return

            else:
                raise SimulationError(f"guest yielded {action!r}")

    def _deliver_injections(self, idx: int) -> None:
        runtime = self.vm.vcpu(idx)
        for intid, payload in self._drain_injections(idx):
            runtime.inject_virq(intid, payload)

    def _make_vipi_payload(self) -> dict:
        tracer = self.tracer
        sim = self.sim
        payload = {
            "sent_at": sim.now,
            "acked_at_fn": lambda: sim.now,
        }

        def acked(p: dict) -> None:
            tracer.sample("vipi_latency_ns", sim.now - p["sent_at"])

        payload["acked"] = acked
        return payload
