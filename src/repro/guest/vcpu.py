"""Guest vCPU runtime: the guest kernel around a workload.

``GuestVcpu.run()`` is the generator the virtualization layer drives.
It wraps the workload with guest-kernel behaviour:

* arming the periodic scheduler tick and handling timer interrupts
  (tick handler + re-arm -- the behaviour responsible for >90% of
  CoreMark's VM exits in the paper's Table 4);
* delivering injected virtual interrupts (IPIs, device completions) to
  handlers at instruction boundaries, with handlers running with
  interrupts masked;
* accounting I/O events so workloads can block on completions.

The driver (RMM dedicated-core loop or KVM vCPU loop) communicates
through :meth:`inject_virq` and by sending the remaining work count back
into ``Compute`` yields.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Generator, Optional, Tuple

from ..costs import CostModel, DEFAULT_COSTS
from ..hw.gic import VTIMER_PPI
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

__all__ = ["VTIMER_VIRQ", "VIPI_VIRQ", "GuestVcpu"]

#: virtual intids as the guest sees them
VTIMER_VIRQ = VTIMER_PPI  # 27
VIPI_VIRQ = 7  # SGI number used by the guest kernel for IPIs


@dataclass
class InjectedVirq:
    """One pending virtual interrupt with optional payload."""

    intid: int
    payload: Any = None


class GuestVcpu:
    """One guest vCPU: kernel model + workload generator."""

    def __init__(
        self,
        vm,
        index: int,
        workload: Optional[Generator] = None,
        costs: CostModel = DEFAULT_COSTS,
        enable_tick: bool = True,
    ):
        self.vm = vm
        self.index = index
        self.costs = costs
        self.enable_tick = enable_tick
        self._workload = workload
        self.pending_virqs: Deque[InjectedVirq] = deque()
        #: I/O event counters: (device, kind) -> arrived count
        self.io_events: Dict[Tuple[str, str], int] = {}
        self._io_consumed: Dict[Tuple[str, str], int] = {}
        self.finished = False
        # statistics
        self.virqs_delivered = 0
        self.ticks_handled = 0
        self.ipis_handled = 0
        self.compute_ns_done = 0

    @property
    def name(self) -> str:
        return f"{self.vm.name}.vcpu{self.index}"

    # ------------------------------------------------------------------
    # driver-side interface
    # ------------------------------------------------------------------

    def inject_virq(self, intid: int, payload: Any = None) -> None:
        """Called by the RMM/KVM when a virtual interrupt is delivered."""
        self.pending_virqs.append(InjectedVirq(intid, payload))

    def has_pending_virq(self) -> bool:
        return bool(self.pending_virqs)

    def note_io_event(self, device: str, kind: str) -> None:
        """Record a device event delivered alongside its interrupt."""
        key = (device, kind)
        self.io_events[key] = self.io_events.get(key, 0) + 1

    # ------------------------------------------------------------------
    # the guest program
    # ------------------------------------------------------------------

    def run(self) -> Generator:
        """The vCPU body: boot, then workload under the kernel."""
        if self.enable_tick:
            yield SetTimer(self.costs.guest_tick_period_ns)
        workload = self._workload
        to_send = None
        while workload is not None:
            try:
                action = workload.send(to_send)
            except StopIteration:
                break
            to_send = yield from self._perform(action)
        self.finished = True
        yield PowerOff()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _perform(self, action):
        """Execute one workload action, delivering virqs at boundaries."""
        # guarded: this runs once per compute chunk, and an empty
        # delivery would still build and drain a generator
        if self.pending_virqs:
            yield from self._deliver_virqs()
        if isinstance(action, Compute):
            yield from self._interruptible_compute(action.work_ns)
            return None
        if isinstance(action, WaitIo):
            # events are cumulative, so a completion that landed before
            # the workload got around to waiting still counts
            key = (action.device, action.kind)
            target = self._io_consumed.get(key, 0) + action.count
            while self.io_events.get(key, 0) < target:
                if not self.pending_virqs:
                    yield Wfi()
                yield from self._deliver_virqs()
            self._io_consumed[key] = target
            return None
        if isinstance(action, Wfi):
            if not self.pending_virqs:
                yield Wfi()
            yield from self._deliver_virqs()
            return None
        if isinstance(action, SendIpi):
            action.sent_at = -1  # stamped by the driver at trap time
            result = yield action
            return result
        # MmioRead/MmioWrite/DeviceDoorbell/SetTimer pass through
        result = yield action
        yield from self._deliver_virqs()
        return result

    def _interruptible_compute(self, work_ns: int):
        """Compute that pays attention to virq delivery on preemption."""
        remaining = int(work_ns)
        while remaining > 0:
            before = remaining
            remaining = yield Compute(remaining)
            self.compute_ns_done += before - remaining
            if self.pending_virqs:
                yield from self._deliver_virqs()
        return None

    def _masked_compute(self, work_ns: int):
        """Handler compute: preemptible by hardware, but virqs stay
        pending until the handler completes (interrupts masked)."""
        remaining = int(work_ns)
        while remaining > 0:
            remaining = yield Compute(remaining)
        return None

    def _deliver_virqs(self):
        """Run guest interrupt handlers for all pending virqs."""
        while self.pending_virqs:
            virq = self.pending_virqs.popleft()
            self.virqs_delivered += 1
            if virq.intid == VTIMER_VIRQ:
                self.ticks_handled += 1
                yield from self._masked_compute(
                    self.costs.guest_tick_handler_ns
                )
                if self.enable_tick:
                    yield SetTimer(self.costs.guest_tick_period_ns)
            elif virq.intid == VIPI_VIRQ:
                self.ipis_handled += 1
                # IAR read + ack write in shared memory: this is the
                # measurement point for Table 3 (deliver + ack)
                yield from self._masked_compute(250)
                if isinstance(virq.payload, dict) and "acked" in virq.payload:
                    virq.payload["acked"](virq.payload)
                yield from self._masked_compute(
                    self.costs.guest_ipi_handler_ns
                )
            else:
                # device interrupt: account the event, small handler
                if isinstance(virq.payload, tuple) and len(virq.payload) == 2:
                    self.note_io_event(*virq.payload)
                yield from self._masked_compute(800)
        return None
