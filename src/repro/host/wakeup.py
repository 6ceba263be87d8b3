"""The CVM-exit wake-up thread (fig. 4).

The RMM signals a vCPU exit with a single IPI (Arm has 16 SGI numbers,
Linux reserves 7; the prototype allocates exactly one more), so the IPI
itself carries no information about *which* vCPU exited.  The IPI
handler activates a wake-up thread which polls the RPC completion slots,
unblocks every vCPU thread whose run call completed, keeps polling while
it finds work, and then suspends until the next IPI.

Using IPIs instead of continuous polling is what lets one host core
serve 60+ guest cores (S5.2): the wake-up thread is only runnable when
there is something to wake, unlike Quarantine's always-runnable pollers.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..costs import CostModel, DEFAULT_COSTS
from ..rpc.ports import AsyncRpcPort
from ..sim.sync import Notify
from ..sim.timeout import TIMED_OUT, with_timeout
from .kernel import CVM_EXIT_SGI, HostKernel
from .threads import HostThread, SchedClass, TBlock, TCompute, TSlices

__all__ = ["ExitNotifier"]


def _claimable(slot) -> bool:
    return slot.completed and not slot.claimed.fired


class ExitNotifier:
    """Host-side dispatcher for CVM-exit IPIs (one per host).

    Each poll of a completion slot costs ``wakeup_scan_slot_ns`` of host
    time on the wake-up thread's core, slot by slot in registration
    order.  The thread asks for the polls up to the next claimable slot
    as one :class:`~repro.host.threads.TSlices`: while no other event
    can dispatch, no slot can complete in between, so those polls must
    all fail and the kernel retires them as one wait, recording exactly
    the spans and CPU time of polling one slot at a time.
    """

    def __init__(
        self,
        kernel: HostKernel,
        target_core: int,
        costs: CostModel = DEFAULT_COSTS,
        host_cores: Optional[set] = None,
    ):
        self.kernel = kernel
        self.machine = kernel.machine
        self.costs = costs
        #: the host core the exit IPI is sent to
        self.target_core = target_core
        self.ports: List[AsyncRpcPort] = []
        self._doorbell = Notify("cvm-exit")
        self.ipis_received = 0
        self.wakeups_performed = 0
        self.activations = 0
        #: watchdog period: when set, the wake-up thread re-polls the
        #: completion slots after this long without an exit IPI, so a
        #: lost IPI degrades to latency instead of a hang.  ``None``
        #: (default) keeps the paper's pure IPI-driven behaviour.
        self.watchdog_ns: Optional[int] = None
        self.watchdog_polls = 0
        self.watchdog_recoveries = 0
        #: fault-injection hook (repro.faults): extra nanoseconds the
        #: wake-up thread burns before scanning on one activation
        self.stall_hook: Optional[Callable[[], int]] = None
        kernel.register_irq_handler(CVM_EXIT_SGI, self._irq_handler)
        self.thread = HostThread(
            name="cvm-wakeup",
            body=self._body(),
            sched_class=SchedClass.FIFO,
            affinity=host_cores or {target_core},
        )
        kernel.add_thread(self.thread, core_hint=target_core)

    def register_port(self, port: AsyncRpcPort) -> None:
        self.ports.append(port)

    # -- RMM side: the exit IPI (step 1) ----------------------------------

    def notify_exit(self, port: AsyncRpcPort) -> None:
        """Called by the RMM after writing the exit record."""
        self.machine.gic.send_sgi(self.target_core, CVM_EXIT_SGI)

    # -- host side ---------------------------------------------------------

    def _irq_handler(self, core_index: int, intid: int) -> int:
        """IPI handler: activate the wake-up thread (step 2)."""
        self.ipis_received += 1
        self._doorbell.signal()
        return self.costs.wakeup_activate_ns

    def _body(self):
        """Wake-up thread: poll channels, wake vCPU threads (steps 3-6).

        With ``watchdog_ns`` set, the suspend in step 2 is bounded: if
        no exit IPI arrives within the period the thread re-polls the
        slots anyway, recovering completions whose IPI was lost.
        """
        sim = self.kernel.sim
        while True:
            from_watchdog = False
            if self.watchdog_ns is None:
                yield TBlock(self._doorbell.wait())
            else:
                wait = self._doorbell.wait()
                guarded = with_timeout(
                    sim, wait, self.watchdog_ns, name="wakeup-watchdog"
                )
                value = yield TBlock(guarded)
                if value is TIMED_OUT:
                    self._doorbell.cancel_wait(wait)
                    self.watchdog_polls += 1
                    from_watchdog = True
            self.activations += 1
            if self.stall_hook is not None:
                stall_ns = self.stall_hook()
                if stall_ns:
                    yield TCompute(stall_ns)
            progress = True
            while progress:
                progress = False
                ports = self.ports
                index = 0
                while index < len(ports):
                    # every check before the first claimable slot fails
                    # unless something dispatches first; TSlices retires
                    # those checks together when nothing can
                    target = index
                    last = len(ports) - 1
                    while target < last and not _claimable(ports[target].slot):
                        target += 1
                    index += yield TSlices(
                        self.costs.wakeup_scan_slot_ns, target - index + 1
                    )
                    slot = ports[index - 1].slot
                    if _claimable(slot):
                        yield TCompute(self.costs.vcpu_unblock_ns)
                        self.wakeups_performed += 1
                        if from_watchdog:
                            self.watchdog_recoveries += 1
                            self.machine.tracer.count(
                                "wakeup_watchdog_recovered"
                            )
                        slot.claimed.fire(slot.result)
                        progress = True
