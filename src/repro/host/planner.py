"""The user-mode core planner (S3).

Performs admission control on CVMs, assigns physical cores, and
orchestrates dedicating those cores to the monitor and returning them to
the host afterwards.  It complements the cloud's node-level resource
allocator: a vCPU-to-core binding that used to be a performance hint
("pinning") is now a security property enforced by the RMM from the
first dispatch of each vCPU.

The planner runs as an ordinary (untrusted) host thread: nothing it
does is in the guest's TCB -- if it misbehaves, the RMM's binding
enforcement turns scheduling violations into RMI errors, not leaks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..costs import CostModel, DEFAULT_COSTS
from ..guest.vm import GuestVm
from ..hw.memory import GRANULE_SIZE
from ..rmm.core_gap import CoreGapEngine, ReleaseCall, RmiCall
from ..rmm.rmi import RmiCommand, RmiResult
from ..rpc.ports import AsyncRpcPort, RpcTimeoutError, SyncRpcPort
from ..sim.engine import Event, SimulationError
from ..sim.timeout import TIMED_OUT, with_timeout
from .hotplug import HotplugController, HotplugError
from .kernel import HostKernel
from .kvm import KvmVm, VmMode
from .threads import TCompute, TSpin
from .wakeup import ExitNotifier

__all__ = ["AdmissionError", "CorePlanner"]


class AdmissionError(Exception):
    """Not enough free cores to honour the CVM's requirements."""


class CorePlanner:
    """Admission control + core allocation + CVM orchestration."""

    #: guest "image" pages loaded via DATA_CREATE per CVM (stand-in for
    #: a real kernel image; keeps measurement and RTT paths exercised)
    IMAGE_PAGES = 8

    def __init__(
        self,
        kernel: HostKernel,
        engine: CoreGapEngine,
        notifier: ExitNotifier,
        host_cores: Set[int],
        costs: CostModel = DEFAULT_COSTS,
    ):
        self.kernel = kernel
        self.machine = kernel.machine
        self.engine = engine
        self.notifier = notifier
        self.host_cores = set(host_cores)
        self.costs = costs
        self.sync_port = SyncRpcPort(
            kernel.sim, "planner", tracer=self.machine.tracer
        )
        #: deadline for one sync RMI busy-wait: None (default) spins
        #: forever (the paper's happy path); when set, an unanswered
        #: call raises a host-visible RpcTimeoutError instead of
        #: wedging the planner on a dead dedicated core
        self.sync_timeout_ns: Optional[int] = None
        #: vm name -> dedicated core list
        self.allocations: Dict[str, List[int]] = {}
        #: every hotplug transition this planner drives flows through
        #: one controller, so its log is the machine's hotplug history
        self.hotplug = HotplugController(kernel, costs)
        #: (vm name, vcpu index) -> resume event of a parked (shrunk)
        #: vCPU; grow_vcpu pops and fires it
        self.parked: Dict[Tuple[str, int], Event] = {}
        #: bump allocator for granules handed to the RMM
        self._next_granule = 1 << 30

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------

    def free_cores(self) -> List[int]:
        allocated = {c for cores in self.allocations.values() for c in cores}
        return [
            core.index
            for core in self.machine.cores
            if core.online
            and core.index not in self.host_cores
            and core.index not in allocated
        ]

    def admit(self, n_vcpus: int) -> List[int]:
        """Pick cores for a new CVM or refuse it."""
        free = self.free_cores()
        if len(free) < n_vcpus:
            raise AdmissionError(
                f"need {n_vcpus} cores, only {len(free)} available"
            )
        return free[:n_vcpus]

    # ------------------------------------------------------------------
    # granules
    # ------------------------------------------------------------------

    def _alloc_granule(self) -> int:
        addr = self._next_granule
        self._next_granule += GRANULE_SIZE
        return addr

    # ------------------------------------------------------------------
    # RMI transport (sync busy-wait RPC, S4.3)
    # ------------------------------------------------------------------

    def rmi(self, inbox, cmd: RmiCommand, args=()):
        """Issue one synchronous RMI call (thread-body generator).

        With ``sync_timeout_ns`` set the busy-wait is bounded: a call a
        dead dedicated core never answers raises a host-visible
        :class:`RpcTimeoutError` (invariant #2: the guest never sees
        transport failures; the planner does, and degrades).
        """
        yield TCompute(self.costs.rpc_write_ns)
        request = self.sync_port.post((cmd, args))
        inbox.try_put(RmiCall(request))
        if self.sync_timeout_ns is None:
            result = yield TSpin(request.done)
        else:
            guarded = with_timeout(
                self.kernel.sim, request.done, self.sync_timeout_ns,
                name=f"rmi-timeout:{cmd.name}",
            )
            result = yield TSpin(guarded)
            if result is TIMED_OUT:
                self.machine.tracer.count("rmi_sync_timeout")
                raise RpcTimeoutError(
                    f"RMI {cmd} unanswered after {self.sync_timeout_ns} ns"
                )
        yield TCompute(self.costs.rpc_poll_detect_ns + self.costs.rpc_read_ns)
        if not isinstance(result, RmiResult) or not result.ok:
            raise SimulationError(f"RMI {cmd} failed: {result}")
        return result

    # ------------------------------------------------------------------
    # CVM launch / teardown (thread-body generators)
    # ------------------------------------------------------------------

    def _acquire_cores(self, n_vcpus: int):
        """Offline + dedicate ``n_vcpus`` cores (thread-body generator).

        Hardened against mid-transition hotplug aborts: a core whose
        offline transition aborts is skipped and the next free core is
        tried; if the pool runs dry, every already-dedicated core is
        rolled back (released + onlined) and admission is refused.
        """
        self.admit(n_vcpus)  # fail fast before touching any core
        fallback = min(self.host_cores)
        acquired: List[int] = []
        abandoned: Set[int] = set()
        while len(acquired) < n_vcpus:
            candidates = [
                c for c in self.free_cores() if c not in abandoned
            ]
            if not candidates:
                yield from self._rollback_cores(acquired)
                raise AdmissionError(
                    f"need {n_vcpus} cores, acquisition failed after "
                    f"{len(abandoned)} aborted hotplug transition(s)"
                )
            index = candidates[0]
            try:
                yield from self.hotplug.offline(index, fallback)
            except HotplugError:
                self.machine.tracer.count("planner_hotplug_retry")
                abandoned.add(index)
                continue
            self.engine.dedicate(index)
            acquired.append(index)
        return acquired

    def _rollback_cores(self, acquired: List[int]):
        """Release + online cores dedicated by a failed acquisition."""
        for index in acquired:
            release = ReleaseCall(done=Event(f"release:{index}"))
            self.engine.dedicated[index].inbox.try_put(release)
            yield TSpin(release.done)
            try:
                yield from self.hotplug.online(index)
            except HotplugError:
                # an abort during rollback leaves the core parked
                # offline; it is unusable but in a consistent state
                self.machine.tracer.count("planner_rollback_parked")

    def launch_cvm(self, vm: GuestVm, busywait: bool = False):
        """Dedicate cores, build the realm, start the vCPU threads.

        Returns the :class:`KvmVm`; run as (part of) a host thread body.
        """
        launch_started_at = self.kernel.sim.now
        # 1. hotplug the cores away from the host, hand them to the RMM
        cores = yield from self._acquire_cores(vm.n_vcpus)
        self.allocations[vm.name] = cores
        inbox = self.engine.dedicated[cores[0]].inbox

        # 2. create and populate the realm over sync RPC
        rd = self._alloc_granule()
        yield from self.rmi(inbox, RmiCommand.GRANULE_DELEGATE, (rd,))
        result = yield from self.rmi(inbox, RmiCommand.REALM_CREATE, (rd,))
        realm_id = result.value

        for level in (1, 2, 3):
            table = self._alloc_granule()
            yield from self.rmi(inbox, RmiCommand.GRANULE_DELEGATE, (table,))
            yield from self.rmi(
                inbox, RmiCommand.RTT_CREATE, (realm_id, 0, level, table)
            )
        for page in range(self.IMAGE_PAGES):
            data = self._alloc_granule()
            yield from self.rmi(inbox, RmiCommand.GRANULE_DELEGATE, (data,))
            yield from self.rmi(
                inbox,
                RmiCommand.DATA_CREATE,
                (realm_id, page * GRANULE_SIZE, data, page),
            )

        for idx in range(vm.n_vcpus):
            rec_granule = self._alloc_granule()
            yield from self.rmi(
                inbox, RmiCommand.GRANULE_DELEGATE, (rec_granule,)
            )
            yield from self.rmi(
                inbox, RmiCommand.REC_CREATE, (realm_id, rec_granule)
            )
            # loading the guest image: attach the vCPU runtime
            rec = self.engine.rmm.find_rec(realm_id, idx)
            rec.runtime = vm.vcpu(idx)
        yield from self.rmi(inbox, RmiCommand.REALM_ACTIVATE, (realm_id,))

        vm.realm_id = realm_id
        vm.domain = self.engine.rmm.realms[realm_id].domain

        # 3. host-side plumbing: ports, notifier, vCPU threads
        kvm = KvmVm(
            self.kernel,
            vm,
            VmMode.GAPPED,
            host_cores=self.host_cores,
            costs=self.costs,
            notifier=self.notifier,
            engine=self.engine,
            realm_id=realm_id,
            busywait=busywait,
            policy=self.engine.policy,
        )
        for idx in range(vm.n_vcpus):
            port = AsyncRpcPort(
                self.kernel.sim,
                f"{vm.name}.vcpu{idx}",
                notify_exit=self.notifier.notify_exit,
                tracer=self.machine.tracer,
            )
            kvm.ports[idx] = port
            kvm.planned_cores[idx] = cores[idx]
            self.notifier.register_port(port)
        self.machine.tracer.sample(
            "planner_launch_ns", self.kernel.sim.now - launch_started_at
        )
        return kvm

    def rebind_vcpu(self, kvm: KvmVm, vcpu_idx: int, new_core: int):
        """Extension (S3 future work): migrate one vCPU's core binding.

        Thread-body generator.  The new core must already be free; the
        planner hotplugs it away from the host, dedicates it, asks the
        REC's current core to hand the binding over, and then reclaims
        the old core.  Used to defragment long-running nodes at coarse
        (tens of seconds) time scales.
        """
        from ..rmm.core_gap import RebindCall

        vm = kvm.vm
        if new_core in self.host_cores:
            raise SimulationError("cannot rebind onto a host core")
        old_core = kvm.planned_cores[vcpu_idx]
        # 1. park the vCPU between run calls (kick + hold the thread)
        acked, resume = kvm.pause_vcpu(vcpu_idx)
        yield TSpin(acked)
        # 2. prepare the destination
        yield from self.hotplug.offline(new_core, min(self.host_cores))
        self.engine.dedicate(new_core)
        # 3. ask the current core to hand over (validates READY state)
        rec = self.engine.rmm.find_rec(kvm.realm_id, vcpu_idx)
        rebind = RebindCall(
            kvm.realm_id, vcpu_idx, new_core, Event(f"rebind:{rec.name}")
        )
        self.engine.dedicated[old_core].inbox.try_put(rebind)
        result = yield TSpin(rebind.done)
        if not result.ok:
            # roll the destination back
            release = ReleaseCall(done=Event(f"release:{new_core}"))
            self.engine.dedicated[new_core].inbox.try_put(release)
            yield TSpin(release.done)
            yield from self.hotplug.online(new_core)
            resume.fire(None)
            raise SimulationError(f"rebind refused: {result}")
        # 4. reclaim the old core for the host
        release = ReleaseCall(done=Event(f"release:{old_core}"))
        self.engine.dedicated[old_core].inbox.try_put(release)
        release_result = yield TSpin(release.done)
        if not release_result.ok:
            raise SimulationError(f"old core release failed: {release_result}")
        yield from self.hotplug.online(old_core)
        # 5. bookkeeping + resume the vCPU (its next run call lands in
        # the new core's inbox via the updated binding)
        kvm.planned_cores[vcpu_idx] = new_core
        cores = self.allocations[vm.name]
        cores[cores.index(old_core)] = new_core
        resume.fire(None)
        return new_core

    def evacuate_vcpu(self, kvm: KvmVm, vcpu_idx: int):
        """Graceful degradation: move a vCPU off its (suspect) core.

        Thread-body generator.  Picks a spare free core and rebinds the
        REC onto it via the existing :class:`RebindCall` path; with no
        spare core available the evacuation is *cleanly refused* with
        an :class:`AdmissionError` (host-visible, never guest-visible).
        """
        spares = self.free_cores()
        if not spares:
            self.machine.tracer.count("planner_evacuate_refused")
            raise AdmissionError(
                f"no spare core to evacuate vcpu {vcpu_idx} of "
                f"{kvm.vm.name}"
            )
        new_core = yield from self.rebind_vcpu(kvm, vcpu_idx, spares[0])
        self.machine.tracer.count("planner_evacuate")
        return new_core

    def handle_core_failure(self, kvm: KvmVm, vcpu_idx: int):
        """Best-effort response to a dedicated-core failure report.

        Thread-body generator: try to evacuate the vCPU to a spare
        core; any failure along the way (no spare, rebind refused,
        sync-RPC timeout against a dead core) is absorbed into a clean
        host-side refusal -- ``(False, reason)`` -- instead of an
        unhandled error.
        """
        try:
            new_core = yield from self.evacuate_vcpu(kvm, vcpu_idx)
        except (AdmissionError, RpcTimeoutError, SimulationError) as exc:
            self.machine.tracer.count("planner_failure_refused")
            return (False, str(exc))
        return (True, new_core)

    def shrink_vcpu(self, kvm: KvmVm, vcpu_idx: int):
        """Autoscaler shrink: park one vCPU, reclaim its core (thread body).

        The vCPU thread is paused between run calls, the REC's binding
        is dropped monitor-side (:class:`~repro.rmm.core_gap.UnbindCall`,
        which scrubs the core), and the core is released and hotplugged
        back online for the host.  The REC keeps its runtime state; a
        later :meth:`grow_vcpu` re-binds it to a fresh core.
        """
        from ..rmm.core_gap import UnbindCall

        vm = kvm.vm
        key = (vm.name, vcpu_idx)
        if key in self.parked:
            raise SimulationError(
                f"vcpu {vcpu_idx} of {vm.name} is already parked"
            )
        # 1. park the vCPU thread between run calls
        acked, resume = kvm.pause_vcpu(vcpu_idx)
        yield TSpin(acked)
        self.parked[key] = resume
        old_core = kvm.planned_cores[vcpu_idx]
        # 2. drop the binding monitor-side (validates READY, scrubs)
        unbind = UnbindCall(
            kvm.realm_id, vcpu_idx, Event(f"unbind:{vm.name}.{vcpu_idx}")
        )
        self.engine.dedicated[old_core].inbox.try_put(unbind)
        result = yield TSpin(unbind.done)
        if not result.ok:
            self.parked.pop(key, None)
            resume.fire(None)
            raise SimulationError(f"shrink refused: {result}")
        # 3. reclaim the core for the host
        release = ReleaseCall(done=Event(f"release:{old_core}"))
        self.engine.dedicated[old_core].inbox.try_put(release)
        release_result = yield TSpin(release.done)
        if not release_result.ok:
            raise SimulationError(
                f"core {old_core} release failed: {release_result}"
            )
        yield from self.hotplug.online(old_core)
        self.allocations[vm.name].remove(old_core)
        self.machine.tracer.count("planner_shrink_count")
        return old_core

    def grow_vcpu(self, kvm: KvmVm, vcpu_idx: int):
        """Autoscaler grow: give a parked vCPU a fresh dedicated core.

        Thread-body generator.  Hotplugs a free core away from the
        host, dedicates it, points the parked vCPU at it and resumes
        the thread; the REC's next dispatch becomes a first dispatch on
        the new core (permanent binding, S4.2).  Refused cleanly with
        :class:`AdmissionError` when no core is free.
        """
        vm = kvm.vm
        key = (vm.name, vcpu_idx)
        resume = self.parked.get(key)
        if resume is None:
            raise SimulationError(
                f"vcpu {vcpu_idx} of {vm.name} is not parked"
            )
        free = self.free_cores()
        if not free:
            self.machine.tracer.count("planner_grow_refused_count")
            raise AdmissionError(
                f"no spare core to grow {vm.name} back to "
                f"vcpu {vcpu_idx}"
            )
        index = free[0]
        yield from self.hotplug.offline(index, min(self.host_cores))
        self.engine.dedicate(index)
        kvm.planned_cores[vcpu_idx] = index
        self.allocations[vm.name].append(index)
        self.parked.pop(key)
        resume.fire(None)
        self.machine.tracer.count("planner_grow_count")
        return index

    def terminate_cvm(self, kvm: KvmVm):
        """Destroy a finished CVM and reclaim its cores (thread body)."""
        vm = kvm.vm
        realm_id = kvm.realm_id
        kvm.torn_down = True
        cores = self.allocations.get(vm.name, [])
        inbox = self.engine.dedicated[cores[0]].inbox
        for idx in range(vm.n_vcpus):
            yield from self.rmi(
                inbox, RmiCommand.REC_DESTROY, (realm_id, idx)
            )
        yield from self.rmi(inbox, RmiCommand.REALM_DESTROY, (realm_id,))
        # ask each dedicated core to stand down, then online it again
        for index in cores:
            release = ReleaseCall(done=Event(f"release:{index}"))
            self.engine.dedicated[index].inbox.try_put(release)
            result = yield TSpin(release.done)
            if not result.ok:
                raise SimulationError(f"core {index} release failed: {result}")
            yield from self.hotplug.online(index)
        self.allocations.pop(vm.name, None)
        # parked (shrunk) vCPU threads of this VM stay parked forever;
        # their resume events die with the bookkeeping
        for key in [k for k in self.parked if k[0] == vm.name]:
            self.parked.pop(key)
        return len(cores)

    def evict_cvm(self, kvm: KvmVm):
        """Tear down a *still-serving* CVM (thread body).

        :meth:`terminate_cvm` assumes every REC is READY (finished
        workloads).  Eviction first parks every live vCPU thread
        between run calls — the same pause handshake the rebind path
        uses — so REC_DESTROY always sees a READY REC, then reuses the
        terminate path.  Returns the number of reclaimed cores.
        """
        vm = kvm.vm
        for idx in range(vm.n_vcpus):
            if (vm.name, idx) in self.parked:
                continue  # already parked by an earlier shrink
            rec = self.engine.rmm.find_rec(kvm.realm_id, idx)
            if rec.runtime is not None and rec.runtime.finished:
                continue  # workload done; its thread has exited
            acked, resume = kvm.pause_vcpu(idx)
            yield TSpin(acked)
            self.parked[(vm.name, idx)] = resume
        released = yield from self.terminate_cvm(kvm)
        self.machine.tracer.count("planner_evict_count")
        return released
