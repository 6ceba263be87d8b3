"""System builder: machine + host + monitor, booted per configuration.

The experiment harnesses (benchmarks/) and examples build a
:class:`System`, launch VMs on it, attach devices, run the clock, and
read results.  This is also the integration surface exercised by the
end-to-end tests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..costs import CostModel, DEFAULT_COSTS
from ..guest.vm import GuestVm
from ..hw.gic import SPI_BASE
from ..hw.machine import Machine
from ..hw.topology import SocTopology
from ..isa.worlds import SecurityDomain, World
from ..rmm.attestation import CORE_GAPPED_RMM
from ..rmm.core_gap import CoreGapEngine
from ..rmm.monitor import Rmm
from ..obs import build_registry, profiler_from_env
from ..sim.engine import Event, SimulationError, Simulator
from ..sim.rng import RngFactory
from ..sim.trace import Tracer
from ..host.kernel import HostKernel
from ..host.kvm import KvmVm, VmMode
from ..host.planner import CorePlanner
from ..host.sriov import SriovNic
from ..host.threads import HostThread, SchedClass
from ..host.virtio import VirtioBackend
from ..host.wakeup import ExitNotifier
from .config import SystemConfig

__all__ = ["System"]


class System:
    """One booted simulated server."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        costs: CostModel = DEFAULT_COSTS,
    ):
        if config is None:
            config = SystemConfig()
        self.config = config
        self.costs = costs
        topology = SocTopology(
            name="exp", n_cores=config.n_cores, memory_gib=64
        )
        self.machine = Machine(
            topology,
            sim=Simulator(tie_break=config.tie_break),
            tracer=Tracer(enabled=config.trace_schedules),
            rng=RngFactory(config.seed),
        )
        self.sim = self.machine.sim
        self.tracer = self.machine.tracer
        self.kernel = HostKernel(self.machine, costs)
        delegated = None if config.delegation else set()
        self.rmm = Rmm(
            self.machine,
            costs,
            image=CORE_GAPPED_RMM,
            delegated_intids=delegated,
        )
        #: isolation policy resolved once and threaded through the
        #: world-switch paths (engine, KVM); see repro.hw.policy
        self.policy = config.resolved_policy()
        self.engine = CoreGapEngine(self.rmm, policy=self.policy)
        if config.is_gapped:
            self.host_cores: Set[int] = set(range(config.n_host_cores))
        else:
            self.host_cores = set(range(config.n_cores))
        self.notifier = ExitNotifier(
            self.kernel,
            target_core=min(self.host_cores),
            costs=costs,
            host_cores=self.host_cores,
        )
        self.planner = CorePlanner(
            self.kernel, self.engine, self.notifier, self.host_cores, costs
        )
        self.kernel.start()
        if config.housekeeping is not None:
            period, burst = config.housekeeping
            self.kernel.add_housekeeping(period, burst)
        self._next_spi = SPI_BASE + 1
        self._next_vm_serial = 1
        self.kvms: List[KvmVm] = []
        #: typed view over the tracer's counters/gauges/samples; every
        #: name the tree publishes is declared in repro.obs.catalog
        self.metrics = build_registry(self.tracer)
        self._profiler = profiler_from_env()
        if self._profiler is not None:
            self.sim.attach_profiler(self._profiler)

    # ------------------------------------------------------------------
    # VM launch
    # ------------------------------------------------------------------

    def launch(self, vm: GuestVm) -> KvmVm:
        """Launch a VM in the configured mode; returns its KVM state.

        For core-gapped mode this drives the planner thread to
        completion (hotplug, realm build over sync RPC, port setup)
        before starting the vCPU threads; time advances accordingly.
        """
        if self.config.is_gapped:
            kvm = self._launch_gapped(vm)
        else:
            kvm = self._launch_shared(vm)
        self.kvms.append(kvm)
        return kvm

    def _launch_shared(self, vm: GuestVm) -> KvmVm:
        mode = (
            VmMode.SHARED_CVM
            if self.config.mode == "shared-cvm"
            else VmMode.SHARED
        )
        vm.domain = SecurityDomain(f"vm:{vm.name}", World.NORMAL)
        kvm = KvmVm(
            self.kernel,
            vm,
            mode,
            host_cores=self.host_cores,
            costs=self.costs,
            policy=self.policy,
        )
        return kvm

    def _launch_gapped(self, vm: GuestVm) -> KvmVm:
        def body():
            kvm = yield from self.planner.launch_cvm(
                vm, busywait=self.config.busywait
            )
            return kvm

        thread = HostThread(
            name=f"planner:{vm.name}",
            body=body(),
            sched_class=SchedClass.FAIR,
            affinity=self.host_cores,
        )
        self.kernel.add_thread(thread)
        self.run_until_event(thread.done_event)
        if thread.result is None:
            raise SimulationError(f"planner failed to launch {vm.name}")
        return thread.result

    def start(self, kvm: KvmVm) -> None:
        """Start the vCPU threads of a launched VM."""
        kvm.start()

    def terminate(self, kvm: KvmVm) -> None:
        """Tear down a finished core-gapped CVM and reclaim its cores."""
        if not self.config.is_gapped:
            return

        def body():
            result = yield from self.planner.terminate_cvm(kvm)
            return result

        thread = HostThread(
            name=f"planner-stop:{kvm.vm.name}",
            body=body(),
            sched_class=SchedClass.FAIR,
            affinity=self.host_cores,
        )
        self.kernel.add_thread(thread)
        self.run_until_event(thread.done_event)

    # ------------------------------------------------------------------
    # devices
    # ------------------------------------------------------------------

    def _alloc_spi(self) -> int:
        spi = self._next_spi
        self._next_spi += 1
        return spi

    def _require_kvm(self, method: str, kvm) -> KvmVm:
        """The ``add_*`` methods take the launched :class:`KvmVm` only
        (it already holds ``kvm.vm``); anything else is a caller bug."""
        if not isinstance(kvm, KvmVm):
            raise TypeError(
                f"System.{method}: first argument must be a KvmVm, "
                f"got {kvm!r}"
            )
        return kvm

    def add_virtio_net(
        self, kvm: KvmVm, name: Optional[str] = None, *,
        echo_peer: bool = False,
    ) -> VirtioBackend:
        kvm = self._require_kvm("add_virtio_net", kvm)
        name = name or "virtio-net0"
        vm = kvm.vm
        device = VirtioBackend(
            name,
            "net",
            self.kernel,
            injector=kvm.inject_virq,
            intid=self._alloc_spi(),
            host_cores=self.host_cores,
            n_vcpus=vm.n_vcpus,
            vm=vm,
            costs=self.costs,
            echo_peer=echo_peer,
        )
        vm.attach_device(name, device)
        return device

    def add_virtio_blk(
        self, kvm: KvmVm, name: Optional[str] = None
    ) -> VirtioBackend:
        kvm = self._require_kvm("add_virtio_blk", kvm)
        name = name or "virtio-blk0"
        vm = kvm.vm
        device = VirtioBackend(
            name,
            "blk",
            self.kernel,
            injector=kvm.inject_virq,
            intid=self._alloc_spi(),
            host_cores=self.host_cores,
            n_vcpus=vm.n_vcpus,
            vm=vm,
            costs=self.costs,
        )
        vm.attach_device(name, device)
        return device

    def add_sriov_nic(
        self, kvm: KvmVm, name: Optional[str] = None, *,
        echo_peer: bool = False,
    ) -> SriovNic:
        kvm = self._require_kvm("add_sriov_nic", kvm)
        name = name or "sriov-net0"
        vm = kvm.vm
        device = SriovNic(
            name,
            self.machine,
            self.kernel,
            injector=kvm.inject_virq,
            intid=self._alloc_spi(),
            irq_core=min(self.host_cores),
            n_vcpus=vm.n_vcpus,
            vm=vm,
            costs=self.costs,
            echo_peer=echo_peer,
        )
        vm.attach_device(name, device)
        return device

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def run_for(self, duration_ns: int) -> None:
        self.sim.run(until=self.sim.now + duration_ns)

    def _drive(
        self,
        predicate: Callable[[], bool],
        limit_ns: Optional[int],
        what: str,
    ) -> None:
        """Run events until ``predicate()`` holds, a deadline passes, or
        the simulation drains dry.

        The single driver behind every ``run_until_*``; the deadline
        check is inclusive (``>=``) so ``limit_ns=0`` cannot run a
        single event past the deadline.
        """
        deadline = None if limit_ns is None else self.sim.now + limit_ns
        while not predicate():
            if self.sim.pending_events == 0:
                raise SimulationError(f"deadlock waiting for {what}")
            if deadline is not None and self.sim.now >= deadline:
                raise SimulationError(f"timeout waiting for {what}")
            self.sim.run_one()

    def run_until_event(self, event: Event, limit_ns: Optional[int] = None) -> None:
        self._drive(lambda: event.fired, limit_ns, "event")

    def run_until_vm_done(self, kvm: KvmVm, limit_ns: Optional[int] = None) -> int:
        self.run_until_event(kvm.done_event, limit_ns)
        return self.sim.now

    def run_until(self, predicate: Callable[[], bool], limit_ns: Optional[int] = None) -> None:
        self._drive(predicate, limit_ns, "predicate")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def exit_counts(self) -> Dict[str, int]:
        return {
            key: count
            for key, count in self.tracer.counters.items()
            if key.startswith("exit:") or key == "exits_total"
        }

    def capture_state(self, extra: Optional[Dict] = None) -> Dict:
        """Canonical snapshot capture of this system's live state
        (:func:`repro.snap.capture_system`)."""
        from ..snap import capture_system  # lazy: snap is optional here

        return capture_system(self, extra=extra)

    def state_digest(self, extra: Optional[Dict] = None) -> str:
        """sha256 over :meth:`capture_state` — two systems in the same
        state have the same digest, bit-for-bit."""
        from ..snap import capture_digest

        return capture_digest(self.capture_state(extra))

    def finish(self) -> None:
        self.tracer.close_all_spans(self.sim.now)
        self._harvest_gauges()

    def _harvest_gauges(self) -> None:
        """Publish end-of-run structural totals as declared gauges.

        Gauges live in ``Tracer.gauges`` and are never digested, so this
        harvest cannot move sanitizer or sweep digests.
        """
        metrics = self.metrics
        metrics.gauge("gic_sgi_sent_count").set(self.machine.gic.sgi_sent)
        metrics.gauge("gic_spi_raised_count").set(self.machine.gic.spi_raised)
        submits = completes = 0
        for kvm in self.kvms:
            for port in kvm.ports.values():
                submits += port.submit_count
                completes += port.complete_count
        metrics.gauge("rpc_submit_count").set(submits)
        metrics.gauge("rpc_complete_count").set(completes)
        metrics.gauge("rpc_sync_call_count").set(
            self.planner.sync_port.call_count
        )
        metrics.gauge("sim_end_ns").set(self.sim.now)
