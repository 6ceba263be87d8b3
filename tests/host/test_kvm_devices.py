"""Integration tests: KVM shared/gapped vCPU loops, devices, injection."""

import pytest

from repro.experiments import System, SystemConfig
from repro.guest.actions import (
    Compute,
    DeviceDoorbell,
    MmioWrite,
    SendIpi,
    WaitIo,
)
from repro.guest.vcpu import VTIMER_VIRQ
from repro.guest.vm import GuestVm
from repro.host.virtio import IoRequest
from repro.sim.clock import ms, us


def run_vm(
    mode, factory, n_vcpus=2, duration=ms(50), devices=(), n_cores=4,
    trace=False,
):
    system = System(
        SystemConfig(
            mode=mode, n_cores=n_cores, housekeeping=None,
            trace_schedules=trace,
        )
    )
    vm = GuestVm("t", n_vcpus, factory)
    kvm = system.launch(vm)
    for kind in devices:
        if kind == "virtio-blk":
            system.add_virtio_blk(kvm, "virtio-blk0")
        elif kind == "virtio-net":
            system.add_virtio_net(kvm, "virtio-net0", echo_peer=True)
        elif kind == "sriov":
            system.add_sriov_nic(kvm, "sriov-net0", echo_peer=True)
    system.start(kvm)
    system.run_for(duration)
    return system, vm, kvm


class TestTicks:
    @pytest.mark.parametrize("mode", ["shared", "gapped"])
    def test_guest_receives_timer_ticks(self, mode):
        def factory(vm, index):
            def body():
                while True:
                    yield Compute(us(300))

            return body()

        system, vm, kvm = run_vm(mode, factory, duration=ms(50))
        expected = 50 // 4  # 4 ms tick period
        for vcpu in vm.vcpus:
            assert vcpu.ticks_handled >= expected - 2

    def test_shared_cvm_mode_also_ticks(self):
        def factory(vm, index):
            def body():
                while True:
                    yield Compute(us(300))

            return body()

        system, vm, kvm = run_vm("shared-cvm", factory, duration=ms(50))
        assert vm.vcpus[0].ticks_handled >= 10
        # shared CVMs pay mitigation flushes on exits
        flushes = sum(
            1
            for c in system.machine.cores
            if c.pollution.total_penalty_paid > 0
        )
        assert flushes > 0


class TestGuestIpi:
    @pytest.mark.parametrize("mode", ["shared", "gapped"])
    def test_ipi_delivered_between_vcpus(self, mode):
        def factory(vm, index):
            def sender():
                for _ in range(5):
                    yield SendIpi(1)
                    yield Compute(us(200))
                while True:
                    yield Compute(ms(1))

            def receiver():
                while True:
                    yield Compute(us(200))

            return sender() if index == 0 else receiver()

        system, vm, kvm = run_vm(mode, factory, duration=ms(20))
        assert vm.vcpus[1].ipis_handled == 5
        samples = system.tracer.samples("vipi_latency_ns")
        assert len(samples) == 5
        assert all(s > 0 for s in samples)


class TestVirtioBlock:
    @pytest.mark.parametrize("mode", ["shared", "gapped"])
    def test_block_io_completes(self, mode):
        done = []

        def factory(vm, index):
            def body():
                if index == 0:
                    for _ in range(10):
                        yield MmioWrite(
                            0x2000,
                            "virtio-blk0",
                            request=IoRequest("blk_read", 4096),
                        )
                        yield WaitIo("virtio-blk0", "complete", 1)
                    done.append(True)
                while True:
                    yield Compute(ms(1))

            return body()

        system, vm, kvm = run_vm(
            mode, factory, duration=ms(80), devices=["virtio-blk"]
        )
        assert done
        device = vm.device("virtio-blk0")
        assert device.requests_served == 10
        assert system.exit_counts().get("exit:mmio_write", 0) == 10


class TestSriov:
    @pytest.mark.parametrize("mode", ["shared", "gapped"])
    def test_sriov_echo_roundtrip_no_mmio_exits(self, mode):
        done = []

        def factory(vm, index):
            def body():
                if index == 0:
                    for _ in range(5):
                        yield DeviceDoorbell(
                            "sriov-net0",
                            IoRequest("net_tx", 1024, {"echo": True}),
                        )
                        yield WaitIo("sriov-net0", "rx", 1)
                        vm.device("sriov-net0").rx_pop(0)
                    done.append(True)
                while True:
                    yield Compute(ms(1))

            return body()

        system, vm, kvm = run_vm(
            mode, factory, duration=ms(50), devices=["sriov"]
        )
        assert done
        counts = system.exit_counts()
        assert counts.get("exit:mmio_write", 0) == 0  # passthrough
        assert vm.device("sriov-net0").doorbells == 5


class TestFinish:
    @pytest.mark.parametrize("mode", ["shared", "gapped"])
    def test_vm_done_event_fires(self, mode):
        def factory(vm, index):
            def body():
                yield Compute(us(100))

            return body()

        system = System(
            SystemConfig(mode=mode, n_cores=4, housekeeping=None)
        )
        vm = GuestVm("t", 2, factory)
        kvm = system.launch(vm)
        system.start(kvm)
        system.run_until_vm_done(kvm, limit_ns=ms(100))
        assert kvm.finished_vcpus == 2
        assert all(v.finished for v in vm.vcpus)


class TestConservation:
    def test_exit_counts_sum_to_total(self):
        def factory(vm, index):
            def body():
                for _ in range(5):
                    yield MmioWrite(
                        0x2000,
                        "virtio-blk0",
                        request=IoRequest("blk_read", 4096),
                    )
                    yield WaitIo("virtio-blk0", "complete", 1)
                while True:
                    yield Compute(ms(1))

            return body()

        system, vm, kvm = run_vm(
            "gapped", factory, n_vcpus=2, duration=ms(60),
            devices=["virtio-blk"],
        )
        counts = system.exit_counts()
        total = counts.pop("exits_total", 0)
        assert total == sum(counts.values())

    def test_busy_time_not_exceeding_wall_time(self):
        def factory(vm, index):
            def body():
                while True:
                    yield Compute(us(500))

            return body()

        system, vm, kvm = run_vm("gapped", factory, duration=ms(30), trace=True)
        system.finish()
        wall = system.sim.now
        tracer = system.tracer
        for core in system.machine.cores:
            busy = tracer.busy_time(core=core.index)
            assert busy <= wall
            # the monitor's total is the stored spans' sum
            assert busy == sum(
                s.duration for s in tracer.spans_on_core(core.index)
            )
