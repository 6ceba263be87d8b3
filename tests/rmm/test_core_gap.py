"""Tests for core-gapping enforcement: binding, never-return, audits.

These exercise the paper's central security mechanisms end-to-end on the
booted system: a hostile hypervisor attempting to co-schedule realms or
migrate vCPUs gets errors, and clean runs keep every distrusting pair of
domains on disjoint cores.
"""

import pytest

from repro.experiments import System, SystemConfig
from repro.guest.actions import Compute
from repro.guest.vm import GuestVm
from repro.isa import MONITOR_DOMAIN, World
from repro.rmm.core_gap import RunCall
from repro.rmm.rmi import RecRunPage, RmiStatus
from repro.security import CoreGapAuditor
from repro.sim.clock import ms


def compute_factory(vm, index):
    def body():
        while True:
            yield Compute(200_000)

    return body()


def launch(system, name="vm0", n_vcpus=2):
    vm = GuestVm(name, n_vcpus, compute_factory)
    kvm = system.launch(vm)
    system.start(kvm)
    return vm, kvm


@pytest.fixture
def system():
    # traced: the never-return check reads the stored spans per core
    return System(
        SystemConfig(
            mode="gapped", n_cores=6, housekeeping=None, trace_schedules=True
        )
    )


class TestBinding:
    def test_rec_binds_to_planned_core_on_first_entry(self, system):
        vm, kvm = launch(system)
        system.run_for(ms(10))
        for idx in range(vm.n_vcpus):
            rec = system.rmm.find_rec(kvm.realm_id, idx)
            assert rec.bound_core == kvm.planned_cores[idx]

    def test_wrong_core_dispatch_rejected(self, system):
        vm, kvm = launch(system)
        system.run_for(ms(10))
        # malicious host: push vcpu0's run call into vcpu1's core inbox
        rec0 = system.rmm.find_rec(kvm.realm_id, 0)
        rec1 = system.rmm.find_rec(kvm.realm_id, 1)
        wrong = system.engine.dedicated[rec1.bound_core]
        port = kvm.ports[0]
        # wait until vcpu0 is between run calls
        system.run_until(lambda: port.slot.state == "submitted", ms(100))
        results = []
        wrong_call = RunCall(
            _FakePort(results), kvm.realm_id, 0, RecRunPage()
        )
        wrong.inbox.try_put(wrong_call)
        # the dedicated core only polls its inbox between runs: kick the
        # running REC out so the hostile call gets looked at
        from repro.rmm.core_gap import HOST_KICK_SGI

        system.machine.gic.send_sgi(rec1.bound_core, HOST_KICK_SGI)
        system.run_until(lambda: results, ms(100))
        assert results[0].status in (
            RmiStatus.ERROR_CORE_BINDING,
            RmiStatus.ERROR_REC,  # if it happened to be mid-run
        )

    def test_second_realm_cannot_use_bound_core(self, system):
        vm, kvm = launch(system)
        system.run_for(ms(10))
        rec0 = system.rmm.find_rec(kvm.realm_id, 0)
        dedicated = system.engine.dedicated[rec0.bound_core]
        assert dedicated.bound_rec is rec0
        # a run call for a *different* REC on this core must fail
        results = []
        call = RunCall(_FakePort(results), kvm.realm_id, 1, RecRunPage())
        dedicated.inbox.try_put(call)
        from repro.rmm.core_gap import HOST_KICK_SGI

        system.machine.gic.send_sgi(rec0.bound_core, HOST_KICK_SGI)
        system.run_until(lambda: results, ms(100))
        assert results[0].status in (
            RmiStatus.ERROR_CORE_BINDING,
            RmiStatus.ERROR_REC,
        )

    def test_bound_core_left_realm_world(self, system):
        vm, kvm = launch(system)
        system.run_for(ms(10))
        for idx in range(vm.n_vcpus):
            rec = system.rmm.find_rec(kvm.realm_id, idx)
            core = system.machine.core(rec.bound_core)
            assert core.world is World.REALM
            assert not core.online  # invisible to the host scheduler


class _FakePort:
    """Captures error completions for hostile-dispatch tests."""

    def __init__(self, sink):
        self._sink = sink

    def complete(self, result):
        self._sink.append(result)


class TestNeverReturn:
    def test_only_monitor_and_guest_on_dedicated_cores(self, system):
        vm, kvm = launch(system)
        system.run_for(ms(50))
        system.finish()
        tracer = system.tracer
        for idx in range(vm.n_vcpus):
            rec = system.rmm.find_rec(kvm.realm_id, idx)
            domains = set(tracer.domains_on_core(rec.bound_core))
            # host ran here only *before* dedication (hotplug path)
            allowed = {MONITOR_DOMAIN.name, vm.domain.name, "host", "idle"}
            assert domains <= allowed
            # after the first guest span, no host span ever again
            spans = sorted(
                tracer.spans_on_core(rec.bound_core), key=lambda s: s.start
            )
            first_guest = next(
                s.start for s in spans if s.domain == vm.domain.name
            )
            for span in spans:
                if span.start >= first_guest:
                    assert span.domain in (
                        MONITOR_DOMAIN.name,
                        vm.domain.name,
                    ), f"{span.domain} ran on a dedicated core at {span.start}"

    def test_audit_clean_for_gapped_run(self, system):
        vm, kvm = launch(system)
        system.run_for(ms(50))
        report = CoreGapAuditor().audit(system.machine, system.tracer)
        assert report.clean, report.summary()

    def test_two_gapped_vms_audit_clean(self):
        system = System(
            SystemConfig(mode="gapped", n_cores=8, housekeeping=None)
        )
        launch(system, "vm0", 2)
        launch(system, "vm1", 2)
        system.run_for(ms(50))
        report = CoreGapAuditor().audit(system.machine, system.tracer)
        assert report.clean, report.summary()

    def test_shared_mode_audit_flags_sharing(self):
        system = System(
            SystemConfig(mode="shared", n_cores=2, housekeeping=None)
        )
        launch(system, "vm0", 2)
        system.run_for(ms(50))
        system.finish()
        report = CoreGapAuditor().audit(system.machine, system.tracer)
        # guest and host share cores: the auditor must see it
        assert not report.clean
        assert any(
            {v.domain_a, v.domain_b} == {"host", "vm:vm0"}
            for v in report.sharing
        )


class TestTeardown:
    def test_terminate_reclaims_cores(self):
        system = System(
            SystemConfig(mode="gapped", n_cores=6, housekeeping=None)
        )

        def finite_factory(vm, index):
            def body():
                for _ in range(3):
                    yield Compute(100_000)

            return body()

        vm = GuestVm("vm0", 2, finite_factory)
        kvm = system.launch(vm)
        dedicated_cores = list(kvm.planned_cores.values())
        system.start(kvm)
        system.run_until_vm_done(kvm, limit_ns=ms(100))
        system.terminate(kvm)
        for index in dedicated_cores:
            core = system.machine.core(index)
            assert core.online
            assert core.world is World.NORMAL
            assert index not in system.engine.dedicated
        assert kvm.realm_id not in system.rmm.realms

    def test_cores_reusable_after_reclaim(self):
        system = System(
            SystemConfig(mode="gapped", n_cores=4, housekeeping=None)
        )

        def finite_factory(vm, index):
            def body():
                yield Compute(100_000)

            return body()

        vm1 = GuestVm("vm1", 2, finite_factory)
        kvm1 = system.launch(vm1)
        system.start(kvm1)
        system.run_until_vm_done(kvm1, limit_ns=ms(100))
        system.terminate(kvm1)
        # the same cores now host a second CVM
        vm2 = GuestVm("vm2", 2, finite_factory)
        kvm2 = system.launch(vm2)
        system.start(kvm2)
        system.run_until_vm_done(kvm2, limit_ns=ms(100))
        assert kvm2.finished_vcpus == 2


class TestAdmission:
    def test_admission_refused_when_cores_exhausted(self):
        from repro.host.planner import AdmissionError

        system = System(
            SystemConfig(mode="gapped", n_cores=4, housekeeping=None)
        )
        launch(system, "vm0", 3)  # 3 guest cores + 1 host core = full
        with pytest.raises(AdmissionError):
            system.planner.admit(1)
