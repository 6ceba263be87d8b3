"""Linux-kernel-build-like workload (fig. 10).

``make -jN`` over a virtio disk: each job reads sources, compiles
(CPU+memory heavy), and writes objects; a final single-threaded link
phase serialises.  The virtio disk path puts core-gapping at a
disadvantage (host-core contention for I/O emulation) while the compile
phase benefits from dedicated cores -- fig. 10 shows the two roughly
cancelling out, core-gapped CVMs matching the baseline with one fewer
vCPU.

The build is a scaled-down kernel: fewer, smaller translation units, so
a 16-way build finishes in ~1 simulated second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ...costs import CostModel, DEFAULT_COSTS
from ...sim.clock import ms
from ..actions import Compute, IoRequest, MmioWrite, WaitIo
from ..vm import GuestVm

__all__ = ["KbuildConfig", "KbuildStats", "kbuild_workload_factory"]


@dataclass
class KbuildConfig:
    """Size of the (scaled-down) kernel tree."""

    total_files: int = 192
    source_bytes: int = 48 * 1024
    object_bytes: int = 96 * 1024
    compile_ns: int = ms(18)
    link_read_files: int = 24
    link_ns: int = ms(120)


@dataclass
class KbuildStats:
    files_compiled: int = 0
    link_done: bool = False
    finished_at: Optional[int] = None


class _SharedBuild:
    """Work queue shared by the guest's make jobs."""

    def __init__(self, config: KbuildConfig, stats: KbuildStats, clock):
        self.config = config
        self.stats = stats
        self.clock = clock
        self.next_file = 0
        self.compiled = 0

    def take_file(self) -> Optional[int]:
        if self.next_file >= self.config.total_files:
            return None
        index = self.next_file
        self.next_file += 1
        return index

    def file_done(self) -> None:
        self.compiled += 1
        self.stats.files_compiled = self.compiled

    @property
    def compile_phase_done(self) -> bool:
        return self.compiled >= self.config.total_files


def kbuild_workload_factory(
    config: KbuildConfig,
    stats: KbuildStats,
    device: str,
    clock,
    costs: CostModel = DEFAULT_COSTS,
):
    shared = _SharedBuild(config, stats, clock)

    def factory(vm: GuestVm, index: int) -> Generator:
        return _make_job(vm, index, shared, device, costs)

    return factory


def _make_job(
    vm: GuestVm, index: int, shared: _SharedBuild, device: str, costs: CostModel
) -> Generator:

    config = shared.config
    while True:
        file_index = shared.take_file()
        if file_index is None:
            break
        # read the source (and headers) through the virtio disk
        yield Compute(costs.guest_virtio_driver_ns)
        yield MmioWrite(
            0x2000, device, request=IoRequest("blk_read", config.source_bytes)
        )
        yield WaitIo(device, "complete", 1)
        # compile: CPU/memory heavy
        yield Compute(config.compile_ns)
        # write the object file
        yield Compute(costs.guest_virtio_driver_ns)
        yield MmioWrite(
            0x2000, device, request=IoRequest("blk_write", config.object_bytes)
        )
        yield WaitIo(device, "complete", 1)
        shared.file_done()

    if index == 0:
        # vCPU 0 performs the final link once every object exists
        while not shared.compile_phase_done:
            yield Compute(ms(1))
        for _ in range(config.link_read_files):
            yield Compute(costs.guest_virtio_driver_ns)
            yield MmioWrite(
                0x2000,
                device,
                request=IoRequest("blk_read", config.object_bytes),
            )
            yield WaitIo(device, "complete", 1)
        yield Compute(config.link_ns)
        yield Compute(costs.guest_virtio_driver_ns)
        yield MmioWrite(
            0x2000,
            device,
            request=IoRequest("blk_write", 16 * 1024 * 1024),
        )
        yield WaitIo(device, "complete", 1)
        shared.stats.link_done = True
        shared.stats.finished_at = shared.clock()
