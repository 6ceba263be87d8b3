"""Core-gapping: dedicated RMM cores that never return to the host.

This is the paper's central mechanism (S3, S4.2, S4.3).  Once the host
hands a core to the monitor (after hotplugging it "offline"), a
:class:`DedicatedCore` loop owns it for the life of the CVM:

* it binds exactly one REC to the core at first dispatch and refuses any
  attempt to run that REC elsewhere or another REC here
  (``RmiStatus.ERROR_CORE_BINDING``);
* run calls arrive as asynchronous cross-core RPCs; VM exits are
  *reported* by writing the exit record to shared memory and raising the
  CVM-exit IPI -- execution never switches back to normal world on this
  core, so no flush is ever needed and no host instruction ever shares
  the core's microarchitectural state with the guest;
* with interrupt delegation enabled, the virtual timer and virtual IPIs
  are emulated right here (S4.4), eliminating the dominant exit causes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..costs import CostModel
from ..guest.actions import (
    Compute,
    DeviceDoorbell,
    MmioRead,
    MmioWrite,
    PowerOff,
    SendIpi,
    SetTimer,
    Wfi,
    WaitIo,
)
from ..guest.vcpu import VIPI_VIRQ, VTIMER_VIRQ
from ..hw.core import ExecStatus, PhysicalCore
from ..hw.gic import VTIMER_PPI
from ..hw.policy import IsolationPolicy, resolve_policy
from ..isa.worlds import MONITOR_DOMAIN, World
from ..rpc.ports import AsyncRpcPort, RpcRequest, SyncRpcPort
from ..sim.engine import Event, SimulationError
from ..sim.sync import Channel
from .realm import RealmState, Rec, RecState
from .rmi import ExitReason, RecExit, RecRunPage, RmiCommand, RmiResult, RmiStatus
from .monitor import Rmm

__all__ = [
    "HOST_KICK_SGI",
    "RMM_VIPI_SGI",
    "RunCall",
    "RmiCall",
    "ReleaseCall",
    "RebindCall",
    "UnbindCall",
    "DedicatedCore",
    "CoreGapEngine",
]

#: host -> dedicated core: "please exit the REC so I can inject/interact"
HOST_KICK_SGI = 9
#: dedicated core -> dedicated core: "I queued a virtual IPI for your guest"
RMM_VIPI_SGI = 10


@dataclass
class RunCall:
    """A REC_ENTER submitted over the async port."""

    port: AsyncRpcPort
    realm_id: int
    rec_index: int
    page: RecRunPage


@dataclass
class RmiCall:
    """A short synchronous RMI call (busy-waited by the host)."""

    request: RpcRequest  # payload = (RmiCommand, args)


@dataclass
class ReleaseCall:
    """Host (planner) asks for this core back."""

    done: Event


@dataclass
class RebindCall:
    """Extension (S3 future work): move a REC's binding to another
    dedicated core at a coarse time scale, monitor-mediated.

    Sent to the REC's *current* core, which validates, scrubs its own
    microarchitectural state, and hands the binding over.  The security
    argument is unchanged: both cores are dedicated (host-invisible),
    the old core is flushed before it can serve anyone else, and the
    binding is never ambiguous -- run calls race-free because the REC
    must be READY (no run outstanding) for the rebind to be accepted.
    """

    realm_id: int
    rec_index: int
    target_core: int
    done: Event


@dataclass
class UnbindCall:
    """Detach a (READY, parked) REC from this core without rebinding.

    The vcpu-autoscaler's shrink half: the planner parks the vCPU
    thread host-side, asks the REC's core to drop the binding, then
    releases the core back to the host.  Mirrors :class:`RebindCall`'s
    validation — the REC must be READY (no run call outstanding) and
    bound *here* — and like every ownership change the core is scrubbed
    (``policy.on_reassignment``) before it can carry anyone else.  The
    REC keeps its runtime state; a later grow re-binds it to a fresh
    dedicated core at its next first dispatch.
    """

    realm_id: int
    rec_index: int
    done: Event


class DedicatedCore:
    """One physical core dedicated to the monitor and (at most) one REC."""

    def __init__(self, engine: "CoreGapEngine", core: PhysicalCore):
        self.engine = engine
        self.rmm = engine.rmm
        self.costs: CostModel = engine.costs
        self.core = core
        self.sim = core.sim
        self.tracer = core.tracer
        self.inbox = Channel(f"rmm-inbox{core.index}")
        self.bound_rec: Optional[Rec] = None
        self.guest_domain = None
        self.released = False
        self.runs_handled = 0
        self.rmi_handled = 0
        #: fault injection (repro.faults): the core hard-stalls after
        #: completing this many run calls -- it silently swallows all
        #: further inbox traffic, like a hung or fused-off core.  The
        #: host must detect this via its own timeouts (invariant #2:
        #: the failure surfaces host-side, never guest-side).
        self.fail_after_runs: Optional[int] = None
        self.failed = False

    # ------------------------------------------------------------------
    # the dedicated-core loop
    # ------------------------------------------------------------------

    def loop(self):
        """Poll the shared-memory inbox; handle RMI and run calls.

        An idle dedicated core busy-polls its inbox (S4.3) -- it has
        nothing else to do, and polling minimises call latency.
        """
        core = self.core
        while not self.released:
            item = yield from self.inbox.get()
            if (
                self.fail_after_runs is not None
                and self.runs_handled >= self.fail_after_runs
            ):
                self.failed = True
            if self.failed:
                # a dead core answers nothing: run slots stay submitted,
                # sync requests never fire -- the host's retry/timeout
                # hardening must notice
                self.tracer.count("rmm_core_dead_drop")
                continue
            yield from core.execute(
                MONITOR_DOMAIN,
                self.costs.rpc_poll_detect_ns + self.costs.rpc_read_ns,
                interruptible=False,
            )
            if isinstance(item, RmiCall):
                yield from self._handle_rmi(item)
            elif isinstance(item, RunCall):
                yield from self._handle_run(item)
            elif isinstance(item, RebindCall):
                yield from self._handle_rebind(item)
            elif isinstance(item, UnbindCall):
                yield from self._handle_unbind(item)
            elif isinstance(item, ReleaseCall):
                self._handle_release(item)
            else:
                raise SimulationError(f"bad inbox item {item!r}")
        core.set_world(World.NORMAL)

    def _handle_rmi(self, call: RmiCall):
        cmd, args = call.request.payload
        self.rmi_handled += 1
        yield from self.core.execute(
            MONITOR_DOMAIN, self.rmm.handler_cost_ns(cmd), interruptible=False
        )
        result = self.rmm.handle_rmi(cmd, args)
        yield from self.core.execute(
            MONITOR_DOMAIN, self.costs.rpc_write_ns, interruptible=False
        )
        SyncRpcPort.respond(call.request, result)

    def _handle_rebind(self, call: RebindCall):
        """Move our REC's binding to another dedicated core (extension).

        Validation mirrors run-call binding enforcement; on success this
        core is scrubbed and left unbound (ready for release or a new
        first dispatch), and the target core inherits the binding.
        """
        yield from self.core.execute(
            MONITOR_DOMAIN, 2_000, interruptible=False
        )
        try:
            rec = self.rmm.find_rec(call.realm_id, call.rec_index)
        except Exception as exc:  # noqa: BLE001 - host input error
            call.done.fire(RmiResult(RmiStatus.ERROR_INPUT, str(exc)))
            return
        target = self.engine.dedicated.get(call.target_core)
        if rec is not self.bound_rec:
            call.done.fire(
                RmiResult(
                    RmiStatus.ERROR_CORE_BINDING,
                    f"{rec.name} is not bound to core {self.core.index}",
                )
            )
            return
        if rec.state is not RecState.READY:
            call.done.fire(
                RmiResult(RmiStatus.ERROR_REC, f"{rec.name} is running")
            )
            return
        if target is None or target.bound_rec is not None:
            call.done.fire(
                RmiResult(
                    RmiStatus.ERROR_IN_USE,
                    f"core {call.target_core} is not free for rebinding",
                )
            )
            return
        # scrub this core before it can carry anything else (the
        # policy's ownership-change hook), then hand the binding over
        self.engine.policy.on_reassignment(self.core)
        self.bound_rec = None
        self.guest_domain = None
        rec.bound_core = target.core.index
        target.bound_rec = rec
        target.guest_domain = self.rmm.realms[call.realm_id].domain
        self.tracer.count("rec_rebind")
        self.tracer.tenure_cut(
            self.sim.now,
            self.core.index,
            self.rmm.realms[call.realm_id].domain.name,
        )
        call.done.fire(RmiResult(RmiStatus.SUCCESS, target.core.index))

    def _handle_unbind(self, call: UnbindCall):
        """Detach our REC without a destination core (autoscaler shrink).

        Validation mirrors :meth:`_handle_rebind`; on success this core
        is scrubbed and left unbound, and the REC is free to take a new
        permanent binding at its next first dispatch (grow).
        """
        yield from self.core.execute(
            MONITOR_DOMAIN, 2_000, interruptible=False
        )
        try:
            rec = self.rmm.find_rec(call.realm_id, call.rec_index)
        except Exception as exc:  # noqa: BLE001 - host input error
            call.done.fire(RmiResult(RmiStatus.ERROR_INPUT, str(exc)))
            return
        if rec.bound_core is None and self.bound_rec is None:
            # the vCPU was parked before its first dispatch: there is no
            # binding to drop, but the core is scrubbed all the same
            self.engine.policy.on_reassignment(self.core)
            self.tracer.count("rec_unbind_count")
            self.tracer.tenure_cut(
                self.sim.now,
                self.core.index,
                self.rmm.realms[call.realm_id].domain.name,
            )
            call.done.fire(RmiResult(RmiStatus.SUCCESS, self.core.index))
            return
        if rec is not self.bound_rec:
            call.done.fire(
                RmiResult(
                    RmiStatus.ERROR_CORE_BINDING,
                    f"{rec.name} is not bound to core {self.core.index}",
                )
            )
            return
        if rec.state is not RecState.READY:
            call.done.fire(
                RmiResult(RmiStatus.ERROR_REC, f"{rec.name} is running")
            )
            return
        self.engine.policy.on_reassignment(self.core)
        self.bound_rec = None
        self.guest_domain = None
        rec.bound_core = None
        self.tracer.count("rec_unbind_count")
        # the tenure cut lets the auditor end this realm's occupancy
        # window here: a later re-dedication of the same core (grow
        # after shrink) reads as a fresh window, not one long shared one
        self.tracer.tenure_cut(
            self.sim.now,
            self.core.index,
            self.rmm.realms[call.realm_id].domain.name,
        )
        call.done.fire(RmiResult(RmiStatus.SUCCESS, self.core.index))

    def _handle_release(self, call: ReleaseCall) -> None:
        if self.bound_rec is not None and (
            self.bound_rec.state is not RecState.DESTROYED
        ):
            call.done.fire(
                RmiResult(RmiStatus.ERROR_IN_USE, "REC still bound")
            )
            return
        # scrub every core-private microarchitectural structure before
        # the core can carry another domain's code (caches incl. L2,
        # TLB, branch predictor, store buffer) -- the hardware-state
        # analogue of scrubbing granules on undelegation.  What "scrub"
        # means is the isolation policy's call (repro.hw.policy).
        self.engine.policy.on_reassignment(self.core)
        self.released = True
        self.engine.dedicated.pop(self.core.index, None)
        call.done.fire(RmiResult(RmiStatus.SUCCESS))

    # ------------------------------------------------------------------
    # REC entry / exit
    # ------------------------------------------------------------------

    def _handle_run(self, call: RunCall):
        error = self._validate_run(call)
        if error is not None:
            yield from self.core.execute(
                MONITOR_DOMAIN, self.costs.rpc_write_ns, interruptible=False
            )
            call.port.complete(error)
            return
        rec = self.rmm.find_rec(call.realm_id, call.rec_index)
        realm = self.rmm.realms[call.realm_id]
        if rec.bound_core is None:
            # first dispatch: the binding becomes permanent (S4.2)
            rec.bound_core = self.core.index
            self.bound_rec = rec
            self.guest_domain = realm.domain
            if rec.gen is None:
                rec.gen = rec.runtime.run()
        rec.state = RecState.RUNNING
        rec.enter_count += 1
        self.runs_handled += 1

        yield from self.core.execute(
            MONITOR_DOMAIN,
            self.costs.rec_enter_ns + self.costs.rmm_lr_sync_ns,
            interruptible=False,
        )
        self._install_host_interrupts(rec, call.page.entry.interrupt_list)

        rec_exit = yield from self._guest_loop(rec, call.page)

        rec.state = RecState.READY
        rec.exit_count += 1
        rec_exit.exit_time = self.sim.now
        rec_exit.interrupt_list = rec.vgic.filtered_view()
        call.page.exit = rec_exit
        self.tracer.count(f"exit:{rec_exit.reason.value}")
        self.tracer.count("exits_total")
        if self.tracer.enabled:
            self.tracer.event(
                self.sim.now,
                "exit",
                core=self.core.index,
                domain=rec.name,
                detail=rec_exit.reason.value,
            )
        yield from self.core.execute(
            MONITOR_DOMAIN,
            self.costs.rec_exit_ns
            + self.costs.rmm_lr_sync_ns
            + self.costs.rpc_write_ns,
            interruptible=False,
        )
        call.port.complete(call.page)

    def _validate_run(self, call: RunCall) -> Optional[RmiResult]:
        try:
            rec = self.rmm.find_rec(call.realm_id, call.rec_index)
            realm = self.rmm.realms[call.realm_id]
        except Exception as exc:  # noqa: BLE001 - host error, not RMM crash
            return RmiResult(RmiStatus.ERROR_INPUT, str(exc))
        if realm.state is not RealmState.ACTIVE:
            return RmiResult(RmiStatus.ERROR_REALM, "realm not active")
        if rec.state is not RecState.READY:
            return RmiResult(RmiStatus.ERROR_REC, f"{rec.name} not ready")
        if rec.runtime is None:
            return RmiResult(RmiStatus.ERROR_REC, "REC has no loaded image")
        if rec.bound_core is not None and rec.bound_core != self.core.index:
            return RmiResult(
                RmiStatus.ERROR_CORE_BINDING,
                f"{rec.name} is bound to core {rec.bound_core}",
            )
        if self.bound_rec is not None and self.bound_rec is not rec:
            return RmiResult(
                RmiStatus.ERROR_CORE_BINDING,
                f"core {self.core.index} is dedicated to "
                f"{self.bound_rec.name}",
            )
        return None

    def _install_host_interrupts(self, rec: Rec, injections) -> None:
        for intid, payload in injections:
            if rec.vgic.inject(intid, from_host=True):
                rec.runtime.inject_virq(intid, payload)

    # ------------------------------------------------------------------
    # driving the guest
    # ------------------------------------------------------------------

    def _guest_loop(self, rec: Rec, page: RecRunPage):
        """Run the guest until something requires the host.  Returns the
        :class:`RecExit` to report."""
        gen = rec.gen
        to_send = rec.pending_send
        rec.pending_send = None
        if rec.last_exit_mmio_read:
            to_send = page.entry.mmio_data
            rec.last_exit_mmio_read = False
        costs = self.costs
        core = self.core

        while True:
            try:
                action = gen.send(to_send)
            except StopIteration:
                return RecExit(ExitReason.WORKLOAD_DONE)
            to_send = None

            if isinstance(action, Compute):
                result = yield from core.execute(
                    self.guest_domain, action.work_ns
                )
                if result.status == ExecStatus.INTERRUPTED:
                    yield from core.execute(
                        MONITOR_DOMAIN,
                        costs.rmm_intercept_ns,
                        interruptible=False,
                    )
                    rec_exit = self._take_phys_irq(rec)
                    if rec_exit is not None:
                        rec.pending_send = result.remaining_ns
                        return rec_exit
                    to_send = result.remaining_ns
                else:
                    to_send = 0

            elif isinstance(action, SetTimer):
                yield from core.execute(
                    MONITOR_DOMAIN, costs.rmm_intercept_ns, interruptible=False
                )
                if self.rmm.delegation_enabled:
                    yield from core.execute(
                        MONITOR_DOMAIN,
                        costs.rmm_vtimer_emul_ns,
                        interruptible=False,
                    )
                    core.timer.program_after(action.delta_ns)
                else:
                    return RecExit(
                        ExitReason.TIMER, timer_delta_ns=action.delta_ns
                    )

            elif isinstance(action, SendIpi):
                payload = self.engine.make_vipi_payload(self.sim.now)
                yield from core.execute(
                    MONITOR_DOMAIN, costs.rmm_intercept_ns, interruptible=False
                )
                if self.rmm.delegation_enabled:
                    yield from core.execute(
                        MONITOR_DOMAIN,
                        costs.rmm_vipi_emul_ns,
                        interruptible=False,
                    )
                    self.engine.deliver_vipi(
                        rec.realm_id,
                        action.target_vcpu,
                        payload,
                        from_core=self.core.index,
                    )
                else:
                    return RecExit(
                        ExitReason.IPI_REQUEST,
                        ipi_target=action.target_vcpu,
                        ipi_payload=payload,
                    )

            elif isinstance(action, MmioRead):
                rec.last_exit_mmio_read = True
                return RecExit(
                    ExitReason.MMIO_READ, device=action.device,
                )

            elif isinstance(action, MmioWrite):
                return RecExit(
                    ExitReason.MMIO_WRITE,
                    device=action.device,
                    is_write=True,
                    write_value=action.value,
                    request=action.request,
                )

            elif isinstance(action, DeviceDoorbell):
                # passthrough: straight to the device, no exit (S5.3)
                device = rec.runtime.vm.device(action.device)
                device.guest_doorbell(rec.runtime, action.request)

            elif isinstance(action, Wfi):
                rec_exit = yield from self._wfi(rec)
                if rec_exit is not None:
                    return rec_exit

            elif isinstance(action, PowerOff):
                return RecExit(ExitReason.PSCI_OFF)

            else:
                raise SimulationError(f"guest yielded {action!r}")

    def _take_phys_irq(self, rec: Rec) -> Optional[RecExit]:
        """Handle one pending physical interrupt on this core.

        Returns a :class:`RecExit` when the host must get involved,
        None when the interrupt was absorbed locally (delegation).
        """
        intid = self.core.take_interrupt()
        if intid is None:
            return None
        if intid == VTIMER_PPI:
            # delegated virtual timer: inject locally, no exit (S4.4)
            rec.vgic.inject(VTIMER_VIRQ, from_host=False)
            rec.runtime.inject_virq(VTIMER_VIRQ)
            rec.vgic.deliver(VTIMER_VIRQ)
            self.tracer.count("rmm_local_timer_inject")
            return None
        if intid == RMM_VIPI_SGI:
            # a peer dedicated core queued a virq for our guest already
            self.tracer.count("rmm_local_vipi_notice")
            return None
        if intid == HOST_KICK_SGI:
            return RecExit(ExitReason.HOST_KICK)
        if intid < 16 and intid != HOST_KICK_SGI and intid != RMM_VIPI_SGI:
            # stale host IPI (e.g. a reschedule IPI raised just before
            # the core left normal world): the GIC's world partitioning
            # would not deliver these into realm world; drop it
            self.tracer.count("rmm_stale_host_sgi")
            return None
        # any other physical interrupt belongs to the host
        return RecExit(ExitReason.IRQ, gprs=(intid,))

    def _wfi(self, rec: Rec):
        """Guest idles: wait locally for a virtual interrupt (no exit on
        dedicated cores -- there is nothing else to run here)."""
        core = self.core
        while not rec.runtime.has_pending_virq():
            if core.irq.has_pending():
                rec_exit = self._take_phys_irq(rec)
                if rec_exit is not None:
                    rec.pending_send = None
                    return rec_exit
                continue
            event = core.irq.doorbell.wait()
            yield event
        return None


class CoreGapEngine:
    """Monitor-side management of all dedicated cores."""

    def __init__(self, rmm: Rmm, policy: Optional[IsolationPolicy] = None):
        self.rmm = rmm
        self.machine = rmm.machine
        self.costs = rmm.costs
        self.tracer = self.machine.tracer
        #: isolation policy governing ownership-change scrubs; the
        #: monitor's own discipline is core-gapping unless the system
        #: threads a different strategy through (repro.hw.policy)
        self.policy = policy if policy is not None else resolve_policy("gapped")
        self.dedicated: Dict[int, DedicatedCore] = {}

    def dedicate(self, core_index: int) -> DedicatedCore:
        """Take ownership of a (host-offlined) core for the monitor."""
        if core_index in self.dedicated:
            raise SimulationError(f"core {core_index} already dedicated")
        core = self.machine.core(core_index)
        if core.online:
            raise SimulationError(
                f"core {core_index} still online to the host"
            )
        core.set_world(World.REALM)
        core.irq.reset()
        dedicated = DedicatedCore(self, core)
        self.dedicated[core_index] = dedicated
        self.machine.sim.spawn(dedicated.loop(), name=f"rmm-core{core_index}")
        return dedicated

    def lead_core(self) -> DedicatedCore:
        if not self.dedicated:
            raise SimulationError("no dedicated cores")
        return self.dedicated[min(self.dedicated)]

    # -- virtual IPI delegation (S4.4) ------------------------------------

    def make_vipi_payload(self, sent_at: int) -> dict:
        tracer = self.tracer

        def acked(payload: dict) -> None:
            tracer.sample(
                "vipi_latency_ns", payload["acked_at_fn"]() - payload["sent_at"]
            )

        return {
            "sent_at": sent_at,
            "acked_at_fn": lambda: self.machine.sim.now,
            "acked": acked,
        }

    def deliver_vipi(
        self,
        realm_id: int,
        target_vcpu: int,
        payload,
        from_core: Optional[int] = None,
    ) -> None:
        """Inject a guest IPI into a sibling REC without host involvement.

        ``from_core`` is trace metadata only (the sending dedicated
        core, when known); delivery is unaffected.
        """
        realm = self.rmm.realms[realm_id]
        target = realm.rec(target_vcpu)
        target.vgic.inject(VIPI_VIRQ, from_host=False)
        target.runtime.inject_virq(VIPI_VIRQ, payload)
        target.vgic.deliver(VIPI_VIRQ)
        if target.bound_core is not None:
            self.machine.gic.send_sgi(
                target.bound_core, RMM_VIPI_SGI, from_core=from_core
            )
