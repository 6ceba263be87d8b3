"""IOzone-like block I/O workload (fig. 9).

Sync read/write throughput to a virtio block device using O_DIRECT
(bypassing the guest page cache), swept across record sizes.  Every
record is one synchronous request: doorbell exit, host emulation,
device latency, completion interrupt -- the exit-intensive path where
core gapping pays its highest cost (fig. 9: parity only at >10 MiB
records).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

from ...costs import CostModel, DEFAULT_COSTS
from ..actions import Compute, IoRequest, MmioWrite, WaitIo
from ..vm import GuestVm

__all__ = ["IozoneStats", "iozone_workload_factory", "DEFAULT_RECORDS"]

KIB = 1024
MIB = 1024 * 1024

#: record sizes swept (bytes), 4 KiB .. 64 MiB as in fig. 9
DEFAULT_RECORDS = [
    4 * KIB,
    16 * KIB,
    64 * KIB,
    256 * KIB,
    1 * MIB,
    4 * MIB,
    16 * MIB,
    64 * MIB,
]

#: virtio-blk segments a large record into requests of at most this size
MAX_SEGMENT = 1 * MIB


@dataclass
class IozoneStats:
    """(record_size, op) -> [duration_ns per record]."""

    samples: Dict[Tuple[int, str], List[int]] = field(default_factory=dict)

    def note(self, record: int, op: str, duration_ns: int) -> None:
        self.samples.setdefault((record, op), []).append(duration_ns)

    def throughput_mib_s(self, record: int, op: str) -> float:
        samples = self.samples.get((record, op), [])
        if not samples:
            return 0.0
        total_ns = sum(samples)
        total_bytes = record * len(samples)
        return total_bytes / MIB / (total_ns / 1e9)


def iozone_workload_factory(
    stats: IozoneStats,
    device: str,
    clock,
    records: List[int] = None,
    ops_per_record: int = 12,
    costs: CostModel = DEFAULT_COSTS,
):
    """Single-threaded IOzone on vCPU 0; other vCPUs idle."""
    records = records or DEFAULT_RECORDS

    def factory(vm: GuestVm, index: int) -> Generator:
        if index == 0:
            return _iozone_vcpu(
                stats, device, clock, records, ops_per_record, costs
            )
        return _idle()

    return factory


def _idle() -> Generator:
    while True:
        yield Compute(1_000_000)


def _iozone_vcpu(
    stats: IozoneStats,
    device: str,
    clock,
    records: List[int],
    ops_per_record: int,
    costs: CostModel,
) -> Generator:

    for record in records:
        for op in ("blk_write", "blk_read"):
            for iteration in range(ops_per_record + 1):
                # iteration 0 is an untimed warm-up, as IOzone does
                start = clock()
                offset = 0
                while offset < record:
                    segment = min(MAX_SEGMENT, record - offset)
                    # guest block layer + driver work per request
                    yield Compute(
                        costs.guest_virtio_driver_ns + segment // 4096 * 60
                    )
                    yield MmioWrite(
                        0x2000, device, request=IoRequest(op, segment)
                    )
                    yield WaitIo(device, "complete", 1)
                    offset += segment
                if iteration > 0:
                    stats.note(record, op, clock() - start)
