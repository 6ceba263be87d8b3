"""Unit tests for the workload generators and their statistics."""

import pytest

from repro.guest.actions import (
    Compute,
    DeviceDoorbell,
    MmioWrite,
    SendIpi,
    WaitIo,
)
from repro.guest.vm import GuestVm
from repro.guest.workloads import (
    CoremarkStats,
    IozoneStats,
    KbuildConfig,
    KbuildStats,
    NetpipeStats,
    OP_GET,
    OP_LRANGE_100,
    OP_SET,
    RedisStats,
    coremark_score,
    coremark_workload_factory,
    iozone_workload_factory,
    kbuild_workload_factory,
    netpipe_workload_factory,
)
from repro.guest.workloads.coremark import DEFAULT_CHUNK_NS


def collect(gen, n, answer=None):
    """Pull n actions out of a workload generator."""
    actions = []
    to_send = None
    for _ in range(n):
        try:
            action = gen.send(to_send)
        except StopIteration:
            break
        actions.append(action)
        to_send = answer(action) if answer else None
    return actions


class TestCoremark:
    def test_pure_compute(self):
        stats = CoremarkStats()
        factory = coremark_workload_factory(stats)
        vm = GuestVm("t", 1, lambda v, i: None)
        gen = factory(vm, 0)
        assert gen.send(None) == Compute(DEFAULT_CHUNK_NS)
        # a chunk is credited only once it completed, i.e. when the
        # runtime resumes the workload for the next one
        assert stats.chunks_completed == 0
        for completed in range(1, 10):
            assert gen.send(None) == Compute(DEFAULT_CHUNK_NS)
            assert stats.chunks_completed == completed
        assert stats.per_vcpu_chunks == {0: 9}

    def test_score_scaling(self):
        stats = CoremarkStats()
        for _ in range(1000):
            stats.note_chunk(0)
        one_second = 1_000_000_000
        score = coremark_score(stats, one_second)
        core_seconds = 1000 * DEFAULT_CHUNK_NS / 1e9
        assert score == pytest.approx(15_000 * core_seconds)

    def test_score_zero_duration(self):
        assert coremark_score(CoremarkStats(), 0) == 0.0

    def test_per_vcpu_accounting(self):
        stats = CoremarkStats()
        stats.note_chunk(0)
        stats.note_chunk(0)
        stats.note_chunk(3)
        assert stats.per_vcpu_chunks == {0: 2, 3: 1}


class TestNetpipeStats:
    def test_latency_is_half_rtt(self):
        stats = NetpipeStats()
        stats.note(1024, 20_000)
        stats.note(1024, 40_000)
        assert stats.mean_rtt_us(1024) == pytest.approx(30.0)
        assert stats.latency_us(1024) == pytest.approx(15.0)

    def test_throughput(self):
        stats = NetpipeStats()
        stats.note(1_048_576, 2_000_000)  # 1 MiB in 2 ms rtt
        # bits / (rtt/2) = 8*2^20 bits / 1 ms = ~8.39 Gb/s
        assert stats.throughput_gbps(1_048_576) == pytest.approx(8.39, rel=0.01)

    def test_empty_size(self):
        stats = NetpipeStats()
        assert stats.latency_us(64) == 0.0
        assert stats.throughput_gbps(64) == 0.0


class TestIozoneStats:
    def test_throughput_math(self):
        stats = IozoneStats()
        mib = 1024 * 1024
        stats.note(mib, "blk_read", 1_000_000)  # 1 MiB in 1 ms
        stats.note(mib, "blk_read", 1_000_000)
        assert stats.throughput_mib_s(mib, "blk_read") == pytest.approx(1000.0)

    def test_missing_sample(self):
        assert IozoneStats().throughput_mib_s(4096, "blk_read") == 0.0


class TestRedisStats:
    def test_throughput_and_percentiles(self):
        stats = RedisStats()
        stats.started_at = 0
        for i in range(100):
            stats.note("SET", (i + 1) * 1_000_000, now=(i + 1) * 100_000)
        assert stats.completed["SET"] == 100
        assert stats.throughput_krps("SET") == pytest.approx(10.0)
        assert stats.percentile_ms("SET", 50) == pytest.approx(50.0)
        assert stats.percentile_ms("SET", 99) == pytest.approx(99.0)
        assert stats.mean_ms("SET") == pytest.approx(50.5)

    def test_op_costs_ordered(self):
        # LRANGE-100 is the long memory-heavy query of Table 5
        assert OP_LRANGE_100.server_ns > OP_GET.server_ns
        assert OP_LRANGE_100.server_ns > OP_SET.server_ns
        assert OP_LRANGE_100.reply_bytes > 100 * 512  # 100 x 512B objects


class TestKbuild:
    def test_work_queue_splits_files(self):
        config = KbuildConfig(total_files=6)
        stats = KbuildStats()
        vm = GuestVm("t", 1, lambda v, i: None)
        factory = kbuild_workload_factory(
            config, stats, "virtio-blk0", clock=lambda: 0
        )
        gens = [factory(vm, i) for i in range(3)]

        def answer(action):
            return None

        # drive each job one step; together they must take all 6 files
        # plus the link phase on vCPU 0
        mmio = 0
        for gen in gens:
            for action in collect(gen, 200, answer):
                if isinstance(action, MmioWrite):
                    mmio += 1
        # 6 files x (1 read + 1 write) = 12 ... but WaitIo never
        # completes without a device, so jobs stall at the first wait
        assert mmio >= 3  # one read submitted per job

    def test_config_defaults_sane(self):
        config = KbuildConfig()
        assert config.total_files > 0
        assert config.compile_ns > config.source_bytes  # CPU-dominated
