"""Guest side: vCPU runtime, VM container, actions, workloads."""

from .actions import (
    Compute,
    DeviceDoorbell,
    MmioRead,
    MmioWrite,
    PowerOff,
    SendIpi,
    SetTimer,
    Wfi,
    WaitIo,
)
from .vcpu import GuestVcpu, VIPI_VIRQ, VTIMER_VIRQ
from .vm import GuestVm

__all__ = [
    "Compute",
    "DeviceDoorbell",
    "GuestVcpu",
    "GuestVm",
    "MmioRead",
    "MmioWrite",
    "PowerOff",
    "SendIpi",
    "SetTimer",
    "VIPI_VIRQ",
    "VTIMER_VIRQ",
    "WaitIo",
    "Wfi",
]
