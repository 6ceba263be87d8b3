"""Host OS kernel model: per-core scheduler, IRQs, threads, hotplug hooks.

Models the parts of Linux that the paper's design interacts with:

* a per-core scheduler with a fair (CFS-like, quantum round-robin) class
  and a FIFO real-time class -- the prototype runs vCPU threads and the
  wake-up thread at FIFO priority (S4.3) so they run to completion;
* interrupt handling on whichever core an interrupt targets, with the
  pollution cost that implies for co-located guests;
* reschedule IPIs so cross-core wakeups preempt lower-priority work;
* task migration off cores that go offline (the hotplug path, S4.2);
* optional per-core housekeeping threads (kworkers, RCU, timers) that
  model the background noise a shared-core guest suffers.

Threads yield :mod:`repro.host.threads` actions; guest execution inside
a vCPU thread uses ``TCompute(..., domain=<realm>, return_on_irq=True)``
so any physical interrupt returns control for VM-exit semantics.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from ..costs import CostModel, DEFAULT_COSTS
from ..hw.core import ExecStatus, PhysicalCore
from ..hw.machine import Machine
from ..isa.worlds import HOST_DOMAIN
from ..sim.engine import AnyOf, Delay, Event
from ..sim.sync import Notify
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

__all__ = ["RESCHED_SGI", "CVM_EXIT_SGI", "HostKernel"]

#: one of Linux's 7 reserved IPIs
RESCHED_SGI = 0
#: the single additional IPI the prototype allocates for CVM-exit
#: notifications (S4.3: 16 SGIs exist, 7 reserved, we take one more)
CVM_EXIT_SGI = 8

IrqHandler = Callable[[int, int], Optional[int]]

#: CFS-like wakeup granularity: a freshly woken fair thread (which has
#: accumulated a large vruntime deficit while sleeping) preempts a fair
#: thread that has already run at least this long
WAKEUP_GRANULARITY_NS = 100_000


class HostKernel:
    """The host OS across all normal-world cores."""

    def __init__(self, machine: Machine, costs: CostModel = DEFAULT_COSTS):
        self.machine = machine
        self.sim = machine.sim
        self.tracer = machine.tracer
        self.costs = costs
        n = machine.n_cores
        self._fifo: Dict[int, Deque[HostThread]] = {i: deque() for i in range(n)}
        self._fair: Dict[int, Deque[HostThread]] = {i: deque() for i in range(n)}
        self.work: Dict[int, Notify] = {
            i: Notify(f"work{i}") for i in range(n)
        }
        self.current: Dict[int, Optional[HostThread]] = {
            i: None for i in range(n)
        }
        self._dispatched_at: Dict[int, int] = {i: 0 for i in range(n)}
        self.irq_handlers: Dict[int, IrqHandler] = {}
        #: fault-injection hooks (repro.faults), keyed by site name
        #: (e.g. "hotplug"); empty in normal operation
        self.fault_hooks: Dict[str, Callable[..., object]] = {}
        self.threads: List[HostThread] = []
        self._parked: List[HostThread] = []
        self._started = False
        self.register_irq_handler(RESCHED_SGI, lambda core, intid: 150)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn the scheduler loop on every online normal-world core."""
        self._started = True
        for core in self.machine.cores:
            if core.online:
                self.start_core(core.index)

    def start_core(self, index: int) -> None:
        core = self.machine.core(index)
        self.sim.spawn(self._core_loop(core), name=f"hostcpu{index}")

    def add_thread(
        self, thread: HostThread, core_hint: Optional[int] = None
    ) -> HostThread:
        """Register and enqueue a new thread."""
        self.threads.append(thread)
        self._enqueue(thread, core_hint)
        return thread

    def wake(self, thread: HostThread, value=None) -> None:
        """Make a blocked thread runnable (with a value to send in)."""
        if thread.state is not ThreadState.BLOCKED:
            return
        thread.send_value = value
        self._enqueue(thread)

    def register_irq_handler(self, intid: int, handler: IrqHandler) -> None:
        """Install a handler; it may return extra handling cost in ns."""
        self.irq_handlers[intid] = handler

    def add_housekeeping(self, period_ns: int, burst_ns: int) -> None:
        """Per-core background kernel work (kworkers, RCU callbacks...).

        This is the host "noise" that shared-core guests absorb and
        core-gapped guests escape.
        """
        for core in self.machine.cores:
            if not core.online:
                continue
            thread = HostThread(
                name=f"kworker/{core.index}",
                body=self._housekeeping_body(period_ns, burst_ns),
                sched_class=SchedClass.FAIR,
                affinity={core.index},
            )
            thread.per_cpu = True
            self.add_thread(thread, core_hint=core.index)

    def _housekeeping_body(self, period_ns: int, burst_ns: int):
        while True:
            yield TSleep(period_ns)
            yield TCompute(burst_ns)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def _load(self, index: int) -> int:
        return (
            len(self._fifo[index])
            + len(self._fair[index])
            + (1 if self.current[index] is not None else 0)
        )

    def _eligible_cores(self, thread: HostThread) -> List[int]:
        return [
            c.index
            for c in self.machine.cores
            if c.online and thread.allowed_on(c.index)
        ]

    def _enqueue(self, thread: HostThread, core_hint: Optional[int] = None) -> None:
        eligible = self._eligible_cores(thread)
        if not eligible:
            # per-cpu thread whose core is offline: park it
            thread.state = ThreadState.BLOCKED
            self._parked.append(thread)
            return
        idle = [c for c in eligible if self._load(c) == 0]
        if core_hint is not None and core_hint in eligible:
            target = core_hint
        elif thread.last_core in eligible and (
            self._load(thread.last_core) == 0 or not idle
        ):
            # cache affinity, unless the old core is busy and an idle
            # one exists (Linux wake_affine / select_idle_sibling)
            target = thread.last_core
        elif idle:
            target = idle[0]
        else:
            target = min(eligible, key=self._load)
        thread.state = ThreadState.RUNNABLE
        queue = (
            self._fifo if thread.sched_class == SchedClass.FIFO else self._fair
        )
        queue[target].append(thread)
        self.work[target].signal()
        running = self.current[target]
        if running is not None and running.sched_class == SchedClass.FAIR:
            if thread.sched_class == SchedClass.FIFO:
                self.machine.gic.send_sgi(target, RESCHED_SGI)
            elif (
                self.sim.now - self._dispatched_at[target]
                >= WAKEUP_GRANULARITY_NS
            ):
                # CFS wakeup preemption: don't let a long-running fair
                # thread starve freshly woken ones (I/O threads)
                self.machine.gic.send_sgi(target, RESCHED_SGI)

    def _pick_next(self, index: int) -> Optional[HostThread]:
        if self._fifo[index]:
            return self._fifo[index].popleft()
        if self._fair[index]:
            return self._fair[index].popleft()
        return None

    def _has_runnable(self, index: int) -> bool:
        return bool(self._fifo[index] or self._fair[index])

    def _fifo_waiting(self, index: int) -> bool:
        return bool(self._fifo[index])

    # ------------------------------------------------------------------
    # hotplug support (mechanism; policy in repro.host.hotplug)
    # ------------------------------------------------------------------

    def migrate_all_from(self, index: int) -> int:
        """Move every queued thread off a core (parking per-cpu ones)."""
        moved = 0
        for queue in (self._fifo[index], self._fair[index]):
            while queue:
                thread = queue.popleft()
                thread.last_core = None
                self._enqueue(thread)
                moved += 1
        return moved

    def unpark_for_core(self, index: int) -> None:
        """Re-enqueue per-cpu threads parked when ``index`` went offline."""
        still_parked = []
        for thread in self._parked:
            if thread.allowed_on(index):
                thread.state = ThreadState.RUNNABLE
                self._fair[index].append(thread)
                self.work[index].signal()
            else:
                still_parked.append(thread)
        self._parked = still_parked

    def kick_core(self, index: int) -> None:
        """Send a reschedule IPI (used by hotplug and cross-core wakeups)."""
        self.machine.gic.send_sgi(index, RESCHED_SGI)

    # ------------------------------------------------------------------
    # the per-core scheduler loop
    # ------------------------------------------------------------------

    def _core_loop(self, core: PhysicalCore):
        index = core.index
        while core.online:
            yield from self._handle_irqs(core)
            if not core.online:
                break
            thread = self._pick_next(index)
            if thread is None:
                work_event = self.work[index].wait()
                irq_event = core.irq.doorbell.wait()
                wakeup = yield AnyOf([work_event, irq_event])
                if wakeup.source is work_event:
                    core.irq.doorbell.cancel_wait(irq_event)
                else:
                    self.work[index].cancel_wait(work_event)
                continue
            yield from self._run_thread(core, thread)
        # core went offline: push everything somewhere else
        self.migrate_all_from(index)

    def _handle_irqs(self, core: PhysicalCore):
        """Acknowledge and handle all pending interrupts on this core."""
        while True:
            intid = core.take_interrupt()
            if intid is None:
                return
            self.tracer.count(f"host_irq:{intid}")
            cost = self.costs.host_irq_entry_ns
            handler = self.irq_handlers.get(intid)
            if handler is not None:
                extra = handler(core.index, intid)
                cost += extra or 0
            else:
                cost += self.costs.host_device_irq_ns
            yield from core.execute(HOST_DOMAIN, cost, interruptible=False)

    def _run_thread(self, core: PhysicalCore, thread: HostThread):
        index = core.index
        self.current[index] = thread
        self._dispatched_at[index] = self.sim.now
        thread.state = ThreadState.RUNNING
        thread.last_core = index
        yield from core.execute(
            HOST_DOMAIN,
            self.costs.sched_pick_ns + self.costs.thread_switch_ns,
            interruptible=False,
        )
        try:
            yield from self._drive(core, thread)
        finally:
            if self.current[index] is thread:
                self.current[index] = None

    def _drive(self, core: PhysicalCore, thread: HostThread):
        """Advance one thread until it blocks, yields, finishes, or is
        preempted."""
        index = core.index
        dispatched_at = self.sim.now
        is_fair = thread.sched_class == SchedClass.FAIR
        while core.online:
            if (
                is_fair
                and self.sim.now - dispatched_at >= self.costs.sched_quantum_ns
                and self._has_runnable(index)
            ):
                # quantum used up across actions: round-robin
                self._requeue(thread, index)
                return
            if thread.pending_action is not None:
                action = thread.pending_action
                thread.pending_action = None
            else:
                try:
                    action = thread.body.send(thread.send_value)
                except StopIteration as stop:
                    thread.state = ThreadState.DONE
                    thread.result = getattr(stop, "value", None)
                    thread.done_event.fire(thread.result)
                    return
                thread.send_value = None

            if isinstance(action, TCompute):
                outcome = yield from self._run_compute(core, thread, action)
                if outcome == "descheduled":
                    return
            elif isinstance(action, TSlices):
                outcome = yield from self._run_slices(core, thread, action)
                if outcome == "descheduled":
                    return
            elif isinstance(action, TBlock):
                if action.event.fired:
                    thread.send_value = action.event.value
                    continue
                thread.state = ThreadState.BLOCKED
                action.event.add_waiter(
                    lambda value, t=thread: self.wake(t, value)
                )
                return
            elif isinstance(action, TSleep):
                timer_event = Event(f"sleep:{thread.name}")
                self.sim.schedule(action.ns, timer_event.fire)
                thread.state = ThreadState.BLOCKED
                timer_event.add_waiter(
                    lambda value, t=thread: self.wake(t, value)
                )
                return
            elif isinstance(action, TYield):
                if self._has_runnable(index):
                    self._requeue(thread, index)
                    return
                # nothing else to run: continue immediately
                continue
            elif isinstance(action, TSpin):
                outcome = yield from self._run_spin(core, thread, action)
                if outcome == "descheduled":
                    return
            else:
                raise TypeError(
                    f"thread {thread.name!r} yielded {action!r}"
                )

        # core went offline mid-thread: move it elsewhere
        self._requeue(thread, exclude=index)

    def _requeue(self, thread: HostThread, index: Optional[int] = None, exclude: Optional[int] = None) -> None:
        thread.state = ThreadState.RUNNABLE
        if exclude is not None:
            thread.last_core = None
        queue = (
            self._fifo if thread.sched_class == SchedClass.FIFO else self._fair
        )
        if index is not None and self.machine.core(index).online:
            queue[index].append(thread)
            self.work[index].signal()
        else:
            self._enqueue(thread)

    def _run_compute(self, core: PhysicalCore, thread: HostThread, action: TCompute):
        """Run one TCompute; returns "done" or "descheduled"."""
        index = core.index
        domain = action.domain or HOST_DOMAIN
        is_fair = thread.sched_class == SchedClass.FAIR
        return_on_irq = action.return_on_irq
        remaining = action.work_ns
        while remaining > 0:
            slice_ns = (
                min(remaining, self.costs.sched_quantum_ns)
                if is_fair
                else remaining
            )
            result = yield from core.execute(domain, slice_ns)
            executed = slice_ns - result.remaining_ns
            thread.cpu_ns += executed
            remaining -= executed
            if result.status == ExecStatus.INTERRUPTED:
                if return_on_irq:
                    # VM-exit semantics: hand the interrupt situation
                    # back to the thread body (KVM) with remaining work
                    thread.send_value = remaining
                    return "done"
                if not core.online:
                    self._requeue(thread, exclude=index)
                    return "descheduled"
                yield from self._handle_irqs(core)
                if is_fair and (
                    self._fifo_waiting(index)
                    or (
                        self._has_runnable(index)
                        and self.sim.now - self._dispatched_at[index]
                        >= WAKEUP_GRANULARITY_NS
                    )
                ):
                    thread.pending_action = TCompute(
                        remaining, action.domain, action.return_on_irq
                    )
                    self._requeue(thread, index)
                    return "descheduled"
                continue
            if is_fair and remaining > 0 and self._has_runnable(index):
                # quantum expired with competition: round-robin
                thread.pending_action = TCompute(
                    remaining, action.domain, action.return_on_irq
                )
                self._requeue(thread, index)
                return "descheduled"
        if return_on_irq:
            thread.send_value = 0
        return "done"

    def _run_slices(self, core: PhysicalCore, thread: HostThread, action: TSlices):
        """Run a :class:`TSlices`; returns "done" or "descheduled".

        If two or more slices end before anything else can dispatch
        (:meth:`Simulator.quiet_until`) and nothing already pending
        could cut one short -- the core is online, no interrupt or
        doorbell signal is pending, the host owes no refill penalty,
        and the thread is FIFO, so no quantum boundary can requeue it
        -- every slice that fits runs as one plain wait.  Each of them
        would have run to completion untouched, so their spans,
        pollution charges and CPU time are synthesized exactly as the
        one-by-one run records them, and the sequence numbers that run
        would have drawn (a race delay and a resume per slice) are
        reserved.  Otherwise one slice runs through
        :meth:`_run_compute`, interrupts and all.
        """
        work_ns = action.work_ns
        irq = core.irq
        if (
            action.count > 1
            and work_ns > 0
            and core.online
            and not irq.has_pending()
            and not irq.doorbell.pending
            and core.pollution.pending_penalty(HOST_DOMAIN) == 0
            and thread.sched_class == SchedClass.FIFO
        ):
            sim = self.sim
            start = sim.now
            count = min(action.count, (sim.quiet_until() - 1 - start) // work_ns)
            if count > 1:
                sim.reserve_seq(2 * count - 1)
                yield Delay(work_ns * count)
                core._synthesize_chunks(HOST_DOMAIN, start, work_ns, count)
                thread.cpu_ns += work_ns * count
                thread.send_value = count
                return "done"
        outcome = yield from self._run_compute(core, thread, TCompute(work_ns))
        thread.send_value = 1
        return outcome

    def _run_spin(self, core: PhysicalCore, thread: HostThread, action: TSpin):
        """Busy-wait on an event while occupying the core."""
        index = core.index
        chunk = 100_000  # re-check interrupts at least every 100 us
        while not action.event.fired:
            result = yield from core.execute(
                HOST_DOMAIN, chunk, extra_wakeups=[action.event]
            )
            thread.cpu_ns += chunk - result.remaining_ns
            if result.status == ExecStatus.INTERRUPTED:
                if not core.online:
                    self._requeue(thread, exclude=index)
                    return "descheduled"
                yield from self._handle_irqs(core)
                if (
                    thread.sched_class == SchedClass.FAIR
                    and self._fifo_waiting(index)
                ):
                    # a FIFO thread preempts the spinner; respin later
                    thread.pending_action = action
                    self._requeue(thread, index)
                    return "descheduled"
        thread.send_value = action.event.value
        return "done"
