"""Guest execution actions.

A guest vCPU is modelled as a generator yielding *actions*; whichever
component controls the core (the RMM on a dedicated core, or KVM on a
shared core) consumes them and simulates the corresponding hardware
behaviour.  Each action corresponds to something a real guest does that
is architecturally visible to the virtualization layer:

========================  =====================================================
action                    real-world equivalent
========================  =====================================================
``Compute``               instructions retiring on the core
``SetTimer``              write to the virtual-timer compare register (traps)
``SendIpi``               write to ICC_SGI1R (traps)
``MmioRead``/``MmioWrite``  access to an emulated device (stage-2 fault)
``DeviceDoorbell``        write to a passthrough (SR-IOV) BAR -- no trap
``Wfi``                   wait-for-interrupt
``WaitIo``                driver blocking on a device completion/event
``PowerOff``              PSCI SYSTEM_OFF
========================  =====================================================

The driver answers a ``Compute`` yield with the remaining work (0 when
it completed; positive when an interrupt preempted it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = [
    "Compute",
    "SetTimer",
    "SendIpi",
    "MmioRead",
    "MmioWrite",
    "DeviceDoorbell",
    "Wfi",
    "WaitIo",
    "PowerOff",
    "IoRequest",
]


@dataclass
class IoRequest:
    """One guest I/O request (virtqueue descriptor chain).

    Built by guest drivers and carried opaquely through
    :class:`MmioWrite`/:class:`DeviceDoorbell` to whichever device
    backend (virtio or SR-IOV) services it.  Defined here, on the guest
    side of the layering boundary, because guests produce requests and
    every backend consumes them.
    """

    kind: str  # "blk_read" | "blk_write" | "net_tx"
    size_bytes: int
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def size_kib(self) -> float:
        return self.size_bytes / 1024.0


@dataclass
class Compute:
    """Run ``work_ns`` of guest computation."""

    work_ns: int


@dataclass
class SetTimer:
    """Program the virtual timer ``delta_ns`` into the future."""

    delta_ns: int


@dataclass
class SendIpi:
    """Send a virtual IPI to another vCPU of the same VM."""

    target_vcpu: int
    #: stamped by the runtime for latency measurement
    sent_at: int = 0


@dataclass
class MmioRead:
    """Read from an emulated device register (causes a VM exit)."""

    addr: int
    device: str


@dataclass
class MmioWrite:
    """Write to an emulated device register (causes a VM exit)."""

    addr: int
    device: str
    value: int = 0
    #: request descriptor for virtio doorbells (opaque to the RMM/KVM,
    #: consumed by the device backend)
    request: Any = None


@dataclass
class DeviceDoorbell:
    """Ring a passthrough device's doorbell (no VM exit)."""

    device: str
    request: Any = None


@dataclass
class Wfi:
    """Idle until a virtual interrupt is delivered."""


@dataclass
class WaitIo:
    """Block until ``count`` events of ``kind`` arrived from ``device``."""

    device: str
    kind: str = "complete"
    count: int = 1


@dataclass
class PowerOff:
    """Guest shut down (PSCI SYSTEM_OFF)."""
