"""Tests for CPU hotplug and the core planner."""

import pytest

from repro.experiments import System, SystemConfig
from repro.guest.actions import Compute
from repro.guest.vm import GuestVm
from repro.host.hotplug import HotplugController, HotplugError
from repro.host.threads import HostThread, SchedClass
from repro.hw.gic import SPI_BASE
from repro.isa import World
from repro.rmm.granule import GranuleState
from repro.sim.clock import ms


def run_thread_body(system, body_gen, name="op"):
    thread = HostThread(name, body_gen, SchedClass.FAIR,
                        affinity=system.host_cores)
    system.kernel.add_thread(thread)
    system.run_until_event(thread.done_event, limit_ns=ms(100))
    return thread.result


@pytest.fixture
def system():
    return System(SystemConfig(mode="gapped", n_cores=4, housekeeping=None))


@pytest.fixture
def hotplug(system):
    """A controller of its own, apart from ``system.planner.hotplug``."""
    return HotplugController(system.kernel)


class TestHotplug:
    def test_offline_marks_core_unusable(self, system, hotplug):
        run_thread_body(system, hotplug.offline(2, fallback_core=0))
        assert not system.machine.core(2).online
        assert system.tracer.counters["hotplug_offline"] == 1

    def test_offline_retargets_device_irqs(self, system, hotplug):
        system.machine.gic.route_spi(SPI_BASE + 5, 2)
        run_thread_body(system, hotplug.offline(2, fallback_core=0))
        assert system.machine.gic.spi_route(SPI_BASE + 5) == 0

    def test_online_restores_core(self, system, hotplug):
        run_thread_body(system, hotplug.offline(2, fallback_core=0))
        run_thread_body(system, hotplug.online(2))
        assert system.machine.core(2).online
        # the host scheduler uses it again
        done = []

        def body():
            yield from ()
            done.append(True)

        thread = HostThread("t", body(), affinity={2})
        system.kernel.add_thread(thread)
        system.run_for(ms(1))
        assert done

    def test_double_offline_rejected(self, system, hotplug):
        run_thread_body(system, hotplug.offline(2, fallback_core=0))
        with pytest.raises(HotplugError, match="already offline"):
            run_thread_body(system, hotplug.offline(2, fallback_core=0))
        # the failed transition mutated nothing
        assert not system.machine.core(2).online
        assert system.tracer.counters["hotplug_offline"] == 1

    def test_double_online_rejected(self, system, hotplug):
        with pytest.raises(HotplugError, match="already online"):
            run_thread_body(system, hotplug.online(2))
        assert system.machine.core(2).online
        assert "hotplug_online" not in system.tracer.counters

    def test_offline_abort_leaves_core_untouched(self, system, hotplug):
        system.kernel.fault_hooks["hotplug"] = lambda direction, idx: True
        with pytest.raises(HotplugError, match="aborted"):
            run_thread_body(system, hotplug.offline(2, fallback_core=0))
        # abort fires before any mutation: the core is still fully online
        assert system.machine.core(2).online
        assert system.tracer.counters["hotplug_abort"] == 1
        assert "hotplug_offline" not in system.tracer.counters

    def test_online_abort_leaves_core_offline(self, system, hotplug):
        run_thread_body(system, hotplug.offline(2, fallback_core=0))
        system.kernel.fault_hooks["hotplug"] = lambda direction, idx: True
        with pytest.raises(HotplugError, match="aborted"):
            run_thread_body(system, hotplug.online(2))
        assert not system.machine.core(2).online
        assert "hotplug_online" not in system.tracer.counters

    def test_offline_online_symmetric_roundtrip(self, system, hotplug):
        for _ in range(2):
            run_thread_body(system, hotplug.offline(2, fallback_core=0))
            assert not system.machine.core(2).online
            run_thread_body(system, hotplug.online(2))
            assert system.machine.core(2).online
        assert system.tracer.counters["hotplug_offline"] == 2
        assert system.tracer.counters["hotplug_online"] == 2


class TestHotplugController:
    """The typed log + audit on the planner's controller."""

    def test_transitions_are_logged_with_typed_results(self, system):
        hotplug = system.planner.hotplug
        run_thread_body(system, hotplug.offline(2, fallback_core=0))
        run_thread_body(system, hotplug.online(2))
        directions = [(r.direction, r.core, r.ok) for r in hotplug.log]
        assert directions == [("offline", 2, True), ("online", 2, True)]
        assert all(r.duration_ns > 0 for r in hotplug.log)
        assert all(r.error == "" for r in hotplug.log)

    def test_aborted_transition_logged_as_failure(self, system):
        hotplug = system.planner.hotplug
        system.kernel.fault_hooks["hotplug"] = lambda direction, idx: True
        with pytest.raises(HotplugError, match="aborted"):
            run_thread_body(system, hotplug.offline(2, fallback_core=0))
        (result,) = hotplug.log
        assert not result.ok
        assert "aborted" in result.error
        # the failed transition stays out of the counter cross-check
        assert hotplug.audit() == []

    def test_transitions_view_filters_by_direction(self, system):
        hotplug = system.planner.hotplug
        run_thread_body(system, hotplug.offline(2, fallback_core=0))
        run_thread_body(system, hotplug.online(2))
        run_thread_body(system, hotplug.offline(3, fallback_core=0))
        assert [r.core for r in hotplug.transitions("offline")] == [2, 3]
        assert [r.core for r in hotplug.transitions("online")] == [2]
        assert len(hotplug.transitions()) == 3

    def test_audit_flags_counter_log_divergence(self, system):
        hotplug = system.planner.hotplug
        run_thread_body(system, hotplug.offline(2, fallback_core=0))
        system.tracer.count("hotplug_offline")  # behind the log's back
        problems = hotplug.audit()
        assert any("hotplug_offline counter" in p for p in problems)

    def test_audit_flags_core_state_divergence(self, system):
        hotplug = system.planner.hotplug
        run_thread_body(system, hotplug.offline(2, fallback_core=0))
        system.machine.core(2).set_online(True)  # behind the log's back
        problems = hotplug.audit()
        assert any("core 2" in p for p in problems)

    def test_wrappers_route_through_a_throwaway_controller(
        self, system, hotplug
    ):
        # a controller of its own transitions correctly but keeps no
        # history on the planner's controller
        run_thread_body(system, hotplug.offline(2, fallback_core=0))
        assert not system.machine.core(2).online
        assert system.planner.hotplug.log == []


def forever(vm, index):
    def body():
        while True:
            yield Compute(100_000)

    return body()


class TestPlanner:
    def test_launch_builds_measured_realm(self, system):
        vm = GuestVm("t", 2, forever)
        kvm = system.launch(vm)
        realm = system.rmm.realms[kvm.realm_id]
        assert realm.measurement != 0
        assert len(realm.recs) == 2
        assert realm.rtt.n_mapped == system.planner.IMAGE_PAGES

    def test_launch_delegates_granules(self, system):
        vm = GuestVm("t", 2, forever)
        system.launch(vm)
        tracker = system.rmm.granules
        assert tracker.count_in_state(GranuleState.RD) == 1
        assert tracker.count_in_state(GranuleState.REC) == 2
        assert tracker.count_in_state(GranuleState.RTT) == 3
        assert (
            tracker.count_in_state(GranuleState.DATA)
            == system.planner.IMAGE_PAGES
        )

    def test_host_core_never_dedicated(self, system):
        vm = GuestVm("t", 3, forever)
        kvm = system.launch(vm)
        assert 0 not in kvm.planned_cores.values()
        assert system.machine.core(0).online

    def test_free_cores_shrink_and_recover(self, system):
        assert sorted(system.planner.free_cores()) == [1, 2, 3]
        vm = GuestVm("t", 2, forever)
        kvm = system.launch(vm)
        assert sorted(system.planner.free_cores()) == [3]

    def test_terminate_releases_granules(self):
        system = System(
            SystemConfig(mode="gapped", n_cores=4, housekeeping=None)
        )

        def finite(vm, index):
            def body():
                yield Compute(50_000)

            return body()

        vm = GuestVm("t", 2, finite)
        kvm = system.launch(vm)
        system.start(kvm)
        system.run_until_vm_done(kvm, limit_ns=ms(100))
        system.terminate(kvm)
        tracker = system.rmm.granules
        for state in (
            GranuleState.RD,
            GranuleState.REC,
            GranuleState.RTT,
            GranuleState.DATA,
        ):
            assert tracker.count_in_state(state) == 0

    def test_acquire_skips_flaky_core(self, system):
        # exactly one abort, on core 1's offline transition: the planner
        # retries with the next free core instead of failing the launch
        aborted = []

        def hook(direction, index):
            if direction == "offline" and index == 1 and not aborted:
                aborted.append(index)
                return True
            return False

        system.kernel.fault_hooks["hotplug"] = hook
        vm = GuestVm("t", 2, forever)
        kvm = system.launch(vm)
        assert sorted(kvm.planned_cores.values()) == [2, 3]
        assert system.tracer.counters["planner_hotplug_retry"] == 1

    def test_acquire_exhaustion_refused_cleanly(self, system):
        from repro.host.planner import AdmissionError

        system.kernel.fault_hooks["hotplug"] = lambda d, i: d == "offline"
        vm = GuestVm("t", 2, forever)
        with pytest.raises(AdmissionError, match="aborted hotplug"):
            system.launch(vm)
        # every core is exactly as it was: online and free
        assert sorted(system.planner.free_cores()) == [1, 2, 3]
        assert "t" not in system.planner.allocations

    def test_rmi_sync_timeout_surfaces_host_side(self, system, hotplug):
        from repro.rpc.ports import RpcTimeoutError
        from repro.rmm.rmi import RmiCommand

        system.planner.sync_timeout_ns = ms(1)

        def body():
            yield from hotplug.offline(2, fallback_core=0)
            dead = system.engine.dedicate(2)
            dead.failed = True  # answers nothing, like a hung core
            yield from system.planner.rmi(
                dead.inbox, RmiCommand.GRANULE_DELEGATE, (1 << 30,)
            )

        with pytest.raises(RpcTimeoutError, match="unanswered"):
            run_thread_body(system, body())
        assert system.tracer.counters["rmi_sync_timeout"] == 1

    def test_attestation_token_for_launched_realm(self, system):
        from repro.rmm import verify_token

        vm = GuestVm("t", 1, forever)
        kvm = system.launch(vm)
        token = system.rmm.attestation_token(kvm.realm_id, challenge=99)
        verifier = system.rmm.root_of_trust.public_verifier()
        realm = system.rmm.realms[kvm.realm_id]
        assert verify_token(
            token,
            verifier,
            expected_realm_measurement=realm.measurement,
            require_core_gapped=True,
        )


class TestPlannerDegradation:
    """Graceful degradation on dedicated-core failure reports."""

    def _launch(self, n_cores, n_vcpus):
        system = System(
            SystemConfig(mode="gapped", n_cores=n_cores, housekeeping=None)
        )
        vm = GuestVm("vm0", n_vcpus, forever)
        kvm = system.launch(vm)
        system.start(kvm)
        system.run_for(ms(5))
        return system, kvm

    def test_core_failure_evacuates_to_spare(self):
        system, kvm = self._launch(n_cores=6, n_vcpus=2)
        old_core = kvm.planned_cores[0]
        ok, new_core = run_thread_body(
            system, system.planner.handle_core_failure(kvm, 0)
        )
        assert ok
        assert new_core != old_core
        assert kvm.planned_cores[0] == new_core
        assert system.tracer.counters["planner_evacuate"] == 1
        system.run_for(ms(2))  # the guest keeps running on the new core

    def test_core_failure_refused_without_spare(self):
        system, kvm = self._launch(n_cores=4, n_vcpus=3)
        ok, reason = run_thread_body(
            system, system.planner.handle_core_failure(kvm, 0)
        )
        assert not ok
        assert "no spare" in reason
        assert system.tracer.counters["planner_failure_refused"] == 1
