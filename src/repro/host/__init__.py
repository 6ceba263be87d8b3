"""Host stack: kernel/scheduler, KVM, VMM device backends, planner."""

from .kernel import CVM_EXIT_SGI, HostKernel, RESCHED_SGI
from .kvm import KvmVm, VmMode
from .planner import AdmissionError, CorePlanner
from .sriov import SriovNic
from .threads import (
    HostThread,
    SchedClass,
    TBlock,
    TCompute,
    TSleep,
    TSlices,
    TSpin,
    TYield,
    ThreadState,
)
from .virtio import IoRequest, VirtioBackend
from .wakeup import ExitNotifier

__all__ = [
    "AdmissionError",
    "CVM_EXIT_SGI",
    "CorePlanner",
    "ExitNotifier",
    "HostKernel",
    "HostThread",
    "IoRequest",
    "KvmVm",
    "RESCHED_SGI",
    "SchedClass",
    "SriovNic",
    "TBlock",
    "TCompute",
    "TSleep",
    "TSlices",
    "TSpin",
    "TYield",
    "ThreadState",
    "VirtioBackend",
    "VmMode",
]
