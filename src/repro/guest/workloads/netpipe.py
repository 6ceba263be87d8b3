"""NetPIPE-like network ping-pong workload (fig. 8).

NetPIPE measures round-trip latency and streaming throughput across a
range of message sizes against an echo peer.  The guest side sends a
message (virtio MMIO doorbell or SR-IOV passthrough doorbell), waits for
the echoed reply, and records the round trip.  Throughput follows from
size / (rtt / 2), as NetPIPE reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

from ...costs import CostModel, DEFAULT_COSTS
from ..actions import Compute, DeviceDoorbell, IoRequest, MmioWrite, WaitIo
from ..vm import GuestVm

__all__ = ["NetpipeStats", "netpipe_workload_factory", "DEFAULT_SIZES"]

#: message sizes swept by the benchmark (bytes)
DEFAULT_SIZES = [64, 256, 1024, 4096, 16384, 65536, 262144, 1048576]


@dataclass
class NetpipeStats:
    """Per-message-size round-trip samples (ns)."""

    rtt_ns: Dict[int, List[int]] = field(default_factory=dict)

    def note(self, size: int, rtt: int) -> None:
        self.rtt_ns.setdefault(size, []).append(rtt)

    def mean_rtt_us(self, size: int) -> float:
        samples = self.rtt_ns.get(size, [])
        return sum(samples) / len(samples) / 1e3 if samples else 0.0

    def latency_us(self, size: int) -> float:
        """One-way latency as NetPIPE reports it (rtt/2)."""
        return self.mean_rtt_us(size) / 2.0

    def throughput_gbps(self, size: int) -> float:
        rtt_us = self.mean_rtt_us(size)
        if rtt_us == 0:
            return 0.0
        return size * 8.0 / (rtt_us * 1e3 / 2.0)  # bits per ns -> Gb/s


def netpipe_workload_factory(
    stats: NetpipeStats,
    device: str,
    passthrough: bool,
    clock,
    sizes: List[int] = None,
    pings_per_size: int = 30,
    costs: CostModel = DEFAULT_COSTS,
):
    """Factory: vCPU 0 runs the ping-pong; other vCPUs idle-compute."""
    sizes = sizes or DEFAULT_SIZES

    def factory(vm: GuestVm, index: int) -> Generator:
        if index == 0:
            return _netpipe_vcpu(
                vm, index, stats, device, passthrough, sizes,
                pings_per_size, clock, costs,
            )
        return _idle_vcpu()

    return factory


def _idle_vcpu() -> Generator:
    # light background activity so the vCPU is not pure WFI
    while True:
        yield Compute(1_000_000)


def _netpipe_vcpu(
    vm: GuestVm,
    index: int,
    stats: NetpipeStats,
    device: str,
    passthrough: bool,
    sizes: List[int],
    pings: int,
    clock,
    costs: CostModel,
) -> Generator:
    for size in sizes:
        for ping in range(pings + 1):
            # the first ping of each size is an unrecorded warm-up, as
            # NetPIPE itself does
            start = clock()
            # guest network stack + driver work scales with size
            yield Compute(
                costs.guest_netstack_ns
                + costs.guest_virtio_driver_ns
                + int(size / 1024 * 120)
            )
            request = _tx_request(size)
            if passthrough:
                yield DeviceDoorbell(device, request)
            else:
                yield MmioWrite(0x1000, device, request=request)
            yield WaitIo(device, "rx", 1)
            vm.device(device).rx_pop(index)
            # receive-side stack processing
            vm_device = None  # resolved lazily through the stats closure
            yield Compute(costs.guest_netstack_ns + int(size / 1024 * 120))
            if ping > 0:
                stats.note(size, clock() - start)


def _tx_request(size: int):

    return IoRequest("net_tx", size, {"echo": True, "payload": b""})
