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
    #: full chunks retired by an :meth:`PhysicalCore.execute_span` call
    #: before it ended (``remaining_ns`` then refers to the chunk in
    #: flight, not the whole span)
    chunks_done: int = 0

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
        #: in-flight coalesced compute span, or None:
        #: (domain, start, penalty, chunk_ns, n_chunks, credit) — held
        #: so a run cut off mid-span can synthesize what completed
        #: (:meth:`finalize_span`)
        self._active_span: Optional[tuple] = None

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

    def execute_span(
        self,
        domain: SecurityDomain,
        chunk_ns: int,
        n_chunks: int,
        credit=None,
    ):
        """Run ``n_chunks`` identical interruptible chunks as ONE wait
        (generator).  Returns an :class:`ExecResult` whose
        ``chunks_done`` counts fully-retired chunks.

        Semantically equivalent to ``n_chunks`` sequential
        ``execute(domain, chunk_ns)`` calls: every per-chunk observable
        (execution spans, pollution charges, ``busy_ns``, the
        ``credit`` progress callback) is synthesized arithmetically
        when the wait resolves, at the exact values the expansion
        would have produced.  Callers must ensure the pending refill
        penalty fits inside one chunk (the expansion would amortize a
        larger debt across chunks, which one coalesced wait cannot).

        On an interrupt at time ``t``, chunks that finished before
        ``t`` are synthesized and the in-flight chunk is reported via
        ``remaining_ns`` exactly as :meth:`execute` would have; a
        ``remaining_ns`` of a full chunk with no partial progress
        means the interrupt landed on a chunk boundary (the expansion
        would have refused to start the next chunk at entry).
        """
        if not self.online and not domain.trusted_by_all and not domain.is_realm:
            raise SimulationError(
                f"core {self.index} is offline to the host (hotplugged)"
            )
        if self.irq.has_pending():
            return ExecResult(ExecStatus.INTERRUPTED, chunk_ns)

        penalty = self.pollution.consume_penalty(domain, chunk_ns)
        self.pollution.note_run(domain)
        self.current_domain = domain
        start = self.sim.now
        total = chunk_ns * n_chunks + penalty
        self._active_span = (
            domain, start, penalty, chunk_ns, n_chunks, credit
        )
        doorbell_event = self.irq.doorbell.wait()
        wakeup = yield AnyOf([Delay(total), doorbell_event])
        self._active_span = None
        now = self.sim.now
        elapsed = now - start

        if wakeup.index == 0:
            self.irq.doorbell.cancel_wait(doorbell_event)
            self._synthesize_chunks(
                domain, start, penalty, chunk_ns, n_chunks, credit
            )
            self.current_domain = None
            return ExecResult(ExecStatus.DONE, 0, chunks_done=n_chunks)

        first = chunk_ns + penalty
        if elapsed < first:
            # interrupted inside the first chunk: identical bookkeeping
            # to a lone execute() preempted at the same instant
            self.busy_ns += elapsed
            self.pollution.note_run_duration(domain, elapsed)
            if now > start:
                self.tracer.insert_span(self.index, domain.name, start, now)
            self.current_domain = None
            work_done = max(0, elapsed - penalty)
            return ExecResult(
                ExecStatus.INTERRUPTED, chunk_ns - work_done, wakeup.value
            )
        done = 1 + (elapsed - first) // chunk_ns
        partial = (elapsed - first) % chunk_ns
        self._synthesize_chunks(
            domain, start, penalty, chunk_ns, done, credit
        )
        if partial:
            self.busy_ns += partial
            self.pollution.note_run_duration(domain, partial)
            self.tracer.insert_span(
                self.index, domain.name, now - partial, now
            )
            self.current_domain = None
            return ExecResult(
                ExecStatus.INTERRUPTED,
                chunk_ns - partial,
                wakeup.value,
                chunks_done=done,
            )
        # boundary interrupt: the next chunk never started (the
        # expansion's entry check would have refused it)
        self.current_domain = None
        return ExecResult(
            ExecStatus.INTERRUPTED, chunk_ns, wakeup.value, chunks_done=done
        )

    def _synthesize_chunks(
        self,
        domain: SecurityDomain,
        start: int,
        penalty: int,
        chunk_ns: int,
        count: int,
        credit,
    ) -> None:
        """Account ``count`` retired chunks exactly as ``count``
        sequential execute() calls would have (spans in end-time order,
        per-chunk pollution charges, busy time, progress credit)."""
        if count <= 0:
            return
        tracer = self.tracer
        pollution = self.pollution
        index = self.index
        name = domain.name
        self.busy_ns += chunk_ns * count + penalty
        now = self.sim.now
        t = start
        end = start + chunk_ns + penalty
        for _ in range(count):
            if end == now:
                # reuse the clock's int, as a live run's end_span does:
                # spans outlive the run, and the next span starts at now
                end = now
            pollution.note_run(domain)
            pollution.note_run_duration(domain, end - t)
            tracer.insert_span(index, name, t, end)
            if credit is not None:
                credit()
            t = end
            end = t + chunk_ns

    def finalize_span(self) -> bool:
        """Settle an in-flight coalesced span at a run cutoff.

        Synthesizes the chunks that completed before ``now`` and
        re-opens the partial chunk as a normal open span, so
        ``Tracer.close_all_spans`` treats it exactly like an expansion
        suspended mid-chunk.  Returns True if there was a span.
        """
        active = self._active_span
        if active is None:
            return False
        self._active_span = None
        domain, start, penalty, chunk_ns, _n_chunks, credit = active
        elapsed = self.sim.now - start
        first = chunk_ns + penalty
        if elapsed < first:
            partial_start = start
        else:
            done = 1 + (elapsed - first) // chunk_ns
            self._synthesize_chunks(
                domain, start, penalty, chunk_ns, done, credit
            )
            partial_start = start + first + (done - 1) * chunk_ns
        self.tracer.begin_span(partial_start, self.index, domain.name)
        return True

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
