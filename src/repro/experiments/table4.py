"""Table 4: interrupt delegation effect on CoreMark-PRO exit counts.

A 16-core CoreMark-PRO run (15 vCPUs core-gapped + 1 host core), with
and without RMM interrupt delegation.  The paper reports 33954 -> 390
interrupt-related exits and 37712 -> 1324 total (a 28x reduction).

Besides the timer ticks the guest itself generates, a real VM sees a
light background of host-injected device interrupts (console, network
housekeeping) and makes occasional MMIO accesses; both are modelled so
the residual exit counts with delegation are non-zero, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..costs import CostModel, DEFAULT_COSTS
from ..guest.actions import Compute, MmioWrite
from ..guest.vm import GuestVm
from ..guest.workloads.coremark import (
    CoremarkStats,
    DEFAULT_CHUNK_NS,
    coremark_workload_factory,
)
from ..guest.vcpu import VTIMER_VIRQ
from ..host.virtio import IoRequest
from ..sim.clock import ms, sec, us
from .config import SystemConfig
from .system import System

__all__ = ["Table4Result", "run_table4", "INTERRUPT_EXITS"]

#: exit reasons classified as interrupt-related (timer programming,
#: IPI requests, interrupt-injection kicks, physical interrupts)
INTERRUPT_EXITS = ("timer", "ipi", "host_kick", "irq", "wfi")

#: rate of host-injected background interrupts (console etc.)
BACKGROUND_IRQ_PERIOD_NS = ms(12)
#: period of the guest's own console/MMIO heartbeat on vCPU 0
CONSOLE_PERIOD_NS = ms(5)


@dataclass
class Table4Result:
    interrupt_exits: Dict[bool, int]  # delegation -> count
    total_exits: Dict[bool, int]

    def reduction_factor(self) -> float:
        with_d = max(1, self.total_exits[True])
        return self.total_exits[False] / with_d


def _coremark_with_console(stats: CoremarkStats, device: str):
    """CoreMark plus a periodic console write on vCPU 0."""
    plain = coremark_workload_factory(stats)

    def factory(vm: GuestVm, index: int):
        if index == 0:
            return _console_vcpu(stats, index, device)
        return plain(vm, index)

    return factory


def _console_vcpu(stats: CoremarkStats, index: int, device: str):
    chunks_per_console = max(1, CONSOLE_PERIOD_NS // DEFAULT_CHUNK_NS)
    count = 0
    while True:
        yield Compute(DEFAULT_CHUNK_NS)
        stats.note_chunk(index)
        count += 1
        if count % chunks_per_console == 0:
            yield MmioWrite(
                0x3000, device, request=IoRequest("net_tx", 64)
            )


def _run_one(
    delegation: bool, duration_ns: int, costs: CostModel
) -> Dict[str, int]:
    config = SystemConfig(
        mode="gapped", n_cores=16, delegation=delegation
    )
    system = System(config, costs)
    stats = CoremarkStats()
    vm = GuestVm(
        "coremark", 15, _coremark_with_console(stats, "virtio-net0"),
        costs=costs,
    )
    kvm = system.launch(vm)
    system.add_virtio_net(kvm, "virtio-net0")
    system.start(kvm)

    # background host-injected interrupts, round-robin over vCPUs
    state = {"next": 0}

    def background() -> None:
        if kvm.finished_vcpus >= vm.n_vcpus:
            return
        target = state["next"] % vm.n_vcpus
        state["next"] += 1
        kvm.inject_virq(target, vm.device("virtio-net0").intid,
                        ("virtio-net0", "note"))
        system.sim.schedule(BACKGROUND_IRQ_PERIOD_NS, background)

    system.sim.schedule(BACKGROUND_IRQ_PERIOD_NS, background)

    system.run_for(duration_ns)
    return system.exit_counts()


def run_table4(
    duration_ns: int = int(sec(4.5)), costs: CostModel = DEFAULT_COSTS
) -> Table4Result:
    interrupt_exits: Dict[bool, int] = {}
    total_exits: Dict[bool, int] = {}
    for delegation in (False, True):
        counts = _run_one(delegation, duration_ns, costs)
        interrupt_exits[delegation] = sum(
            counts.get(f"exit:{reason}", 0) for reason in INTERRUPT_EXITS
        )
        total_exits[delegation] = counts.get("exits_total", 0)
    return Table4Result(
        interrupt_exits=interrupt_exits, total_exits=total_exits
    )
