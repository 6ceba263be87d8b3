"""Physical core model.

A core executes *work* on behalf of a security domain.  Work segments
are interruptible by the core's GIC interface (IPIs, timer PPIs, device
SPIs).  Every segment is recorded as an execution span in the machine's
tracer -- those spans are the ground truth for the core-gap auditor and
for CPU-time accounting.

The locality model charges a refill penalty (via
:class:`repro.hw.uarch.PollutionModel`) when a domain resumes on a core
that something else has used since -- the indirect cost of shared-core
virtualization that core gapping eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..isa.worlds import SecurityDomain, World
from ..sim.engine import AnyOf, Delay, Event, SimulationError
from .uarch import CoreUarchState, PollutionModel

__all__ = ["ExecStatus", "ExecResult", "PhysicalCore", "MEM_LATENCY"]


class ExecStatus:
    """Why an execute() segment ended."""

    DONE = "done"
    INTERRUPTED = "interrupted"
    PREEMPTED = "preempted"  # an extra wakeup event fired


@dataclass
class ExecResult:
    """Result of one execute() segment."""

    status: str
    remaining_ns: int
    wakeup_value: object = None

    @property
    def done(self) -> bool:
        return self.status == ExecStatus.DONE


@dataclass(frozen=True)
class MemLatency:
    """Access latencies (ns) through the hierarchy at ~3 GHz."""

    l1_ns: float = 1.3
    l2_ns: float = 4.0
    llc_ns: float = 30.0
    dram_ns: float = 95.0


MEM_LATENCY = MemLatency()


class PhysicalCore:
    """One physical core of the simulated SoC."""

    def __init__(self, machine, index: int):
        self.machine = machine
        self.sim = machine.sim
        self.tracer = machine.tracer
        self.index = index
        self.irq = machine.gic.cores[index]
        self.timer = machine.timers[index]
        self.uarch = CoreUarchState(index)
        self.pollution = PollutionModel(machine.pollution_costs)
        self.world: World = World.NORMAL
        self.online: bool = True
        self.current_domain: Optional[SecurityDomain] = None
        self.busy_ns = 0

    def __repr__(self) -> str:
        return f"PhysicalCore({self.index}, world={self.world.value})"

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(
        self,
        domain: SecurityDomain,
        work_ns: int,
        interruptible: bool = True,
        extra_wakeups: Sequence[Event] = (),
    ):
        """Run ``work_ns`` of ``domain`` work on this core (generator).

        Returns an :class:`ExecResult`.  When an interrupt (or an extra
        wakeup event) arrives mid-segment, the result carries the work
        still owed; callers resume with another ``execute`` call after
        handling it.  Refill penalties from prior pollution are paid at
        the start of the segment and are *not* refunded on preemption.
        """
        if not self.online and not domain.trusted_by_all and not domain.is_realm:
            raise SimulationError(
                f"core {self.index} is offline to the host (hotplugged)"
            )
        if interruptible and self.irq.has_pending():
            return ExecResult(ExecStatus.INTERRUPTED, work_ns)

        penalty = self.pollution.consume_penalty(domain, work_ns)
        self.pollution.note_run(domain)
        self.current_domain = domain
        self.tracer.begin_span(self.sim.now, self.index, domain.name)
        start = self.sim.now
        total = work_ns + penalty

        sources: List = [Delay(total)]
        doorbell_event = None
        if interruptible:
            doorbell_event = self.irq.doorbell.wait()
            sources.append(doorbell_event)
        sources.extend(extra_wakeups)

        wakeup = yield AnyOf(sources)

        elapsed = self.sim.now - start
        self.busy_ns += elapsed
        self.pollution.note_run_duration(domain, elapsed)
        self.tracer.end_span(self.sim.now, self.index)
        self.current_domain = None

        if wakeup.index == 0:
            if doorbell_event is not None:
                self.irq.doorbell.cancel_wait(doorbell_event)
            return ExecResult(ExecStatus.DONE, 0)

        work_done = max(0, elapsed - penalty)
        remaining = max(0, work_ns - work_done)
        if interruptible and wakeup.index == 1:
            return ExecResult(
                ExecStatus.INTERRUPTED, remaining, wakeup.value
            )
        if doorbell_event is not None:
            self.irq.doorbell.cancel_wait(doorbell_event)
        return ExecResult(ExecStatus.PREEMPTED, remaining, wakeup.value)

    def _synthesize_chunks(
        self,
        domain: SecurityDomain,
        start: int,
        chunk_ns: int,
        count: int,
    ) -> None:
        """Account ``count`` chunks retired back to back from ``start``
        exactly as ``count`` sequential uninterrupted, penalty-free
        execute() calls would have (spans in end-time order, per-chunk
        pollution charges, busy time).  The host's quiescent window
        (:meth:`repro.host.kernel.HostKernel._run_slices`) runs such
        chunks as one wait and settles them here."""
        if count <= 0:
            return
        tracer = self.tracer
        pollution = self.pollution
        index = self.index
        name = domain.name
        self.busy_ns += chunk_ns * count
        now = self.sim.now
        t = start
        end = start + chunk_ns
        for _ in range(count):
            if end == now:
                # reuse the clock's int, as a live run's end_span does:
                # spans outlive the run, and the next span starts at now
                end = now
            pollution.note_run(domain)
            pollution.note_run_duration(domain, end - t)
            tracer.insert_span(index, name, t, end)
            t = end
            end = t + chunk_ns

    def run_to_completion(self, domain: SecurityDomain, work_ns: int):
        """Uninterruptible convenience wrapper (generator)."""
        result = yield from self.execute(domain, work_ns, interruptible=False)
        return result

    # ------------------------------------------------------------------
    # interrupts
    # ------------------------------------------------------------------

    def take_interrupt(self) -> Optional[int]:
        """Acknowledge the highest-priority pending interrupt."""
        return self.irq.acknowledge()

    # ------------------------------------------------------------------
    # memory accesses through the hierarchy (security experiments)
    # ------------------------------------------------------------------

    def access_memory(
        self, addr: int, domain: SecurityDomain, write: bool = False
    ) -> float:
        """One data access; returns its latency and updates tagged state."""
        lat = MEM_LATENCY
        if write:
            self.uarch.store_buffer.push(addr, 0, domain)
        l1 = self.uarch.l1d.access(addr, domain)
        if l1.hit:
            return lat.l1_ns
        l2 = self.uarch.l2.access(addr, domain)
        if l2.hit:
            return lat.l2_ns
        llc = self.machine.llc.access(addr, domain)
        if llc.hit:
            return lat.llc_ns
        return lat.dram_ns

    def probe_latency(self, addr: int, domain: SecurityDomain) -> float:
        """Timing-probe an address *without* disturbing LRU more than a
        real probe would (it performs a normal access)."""
        return self.access_memory(addr, domain)

    # ------------------------------------------------------------------
    # hotplug / world control (mechanisms; policy lives in host/rmm)
    # ------------------------------------------------------------------

    def set_online(self, online: bool) -> None:
        self.online = online

    def set_world(self, world: World) -> None:
        self.world = world
