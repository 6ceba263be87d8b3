"""Trace recording for simulated schedules.

Every closed execution span and tenure cut feeds the tracer's
:class:`~repro.sim.tenure.TenureMonitor`, traced or not; the security
auditor (``repro.security.audit``) reads the core-gap invariant and the
CPU-time totals from it.  The spans themselves are stored only when
tracing is on.  The experiment harnesses use the counters for exit
accounting (Table 4).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .engine import SimulationError
from .tenure import TenureMonitor

__all__ = ["TraceRecord", "Tracer", "ExecutionSpan"]


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace event."""

    time: int
    kind: str
    core: Optional[int] = None
    domain: Optional[str] = None
    detail: Optional[Any] = None


@dataclass(frozen=True)
class ExecutionSpan:
    """A contiguous interval during which a domain occupied a core."""

    core: int
    domain: str
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records trace events, execution spans, named counters and gauges.

    ``enabled=False`` keeps only the counters and the tenure monitor,
    so the large macro benchmarks do not pay the cost of storing full
    schedules: :attr:`spans`, :attr:`records` and :attr:`tenure_cuts`
    stay empty, and the span queries that need them raise.

    Two record-producing entry points with different contracts:

    * :meth:`record` — counts *and* (when enabled) stores the record;
      the counter side is part of the accounting surface and moves the
      sanitizer digest (DESIGN.md invariant #6).
    * :meth:`event` — pure observability: stores the record only when
      enabled and **never** touches the counters, so instrumented and
      uninstrumented runs digest bit-identically when tracing is off.
      The Perfetto exporter (:mod:`repro.obs.perfetto`) consumes these.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: List[TraceRecord] = []
        self.counters: Counter = Counter()
        #: last-write-wins named scalars, harvested at the end of a run
        #: (structural totals like ``gic_sgi_sent_count``); never part
        #: of the sanitizer digest
        self.gauges: Dict[str, float] = {}
        self._open_spans: Dict[int, Tuple[str, int]] = {}
        #: checks every closed span and tenure cut, traced or not
        self.monitor = TenureMonitor()
        self.spans: List[ExecutionSpan] = []
        #: (time, core, domain) marks where a scrubbed ownership change
        #: ended a domain's tenure on a core (monitor unbind/rebind);
        #: stored when enabled and, like gauges, never part of the
        #: sanitizer digest
        self.tenure_cuts: List[TraceRecord] = []
        self._samples: Dict[str, List[float]] = defaultdict(list)

    # -- events ---------------------------------------------------------

    def record(
        self,
        time: int,
        kind: str,
        core: Optional[int] = None,
        domain: Optional[str] = None,
        detail: Optional[Any] = None,
    ) -> None:
        self.counters[kind] += 1
        if self.enabled:
            self.records.append(TraceRecord(time, kind, core, domain, detail))

    def event(
        self,
        time: int,
        kind: str,
        core: Optional[int] = None,
        domain: Optional[str] = None,
        detail: Optional[Any] = None,
    ) -> None:
        """Store a pure-observability record; no-op when disabled."""
        if self.enabled:
            self.records.append(TraceRecord(time, kind, core, domain, detail))

    def count(self, kind: str, amount: int = 1) -> None:
        self.counters[kind] += amount

    def tenure_cut(self, time: int, core: int, domain: str) -> None:
        """Mark a scrubbed ownership change: ``domain``'s tenure on
        ``core`` ends now.  The monitor sees it regardless of
        ``enabled``."""
        self.monitor.cut(time, core, domain)
        if self.enabled:
            self.tenure_cuts.append(
                TraceRecord(time, "tenure-cut", core, domain, None)
            )

    def sample(self, name: str, value: float) -> None:
        """Record one scalar observation (latency, size, ...)."""
        self._samples[name].append(value)

    def samples(self, name: str) -> List[float]:
        return self._samples.get(name, [])

    def set_gauge(self, name: str, value: float) -> None:
        """Publish a last-write-wins scalar (end-of-run totals)."""
        self.gauges[name] = value

    # -- execution spans --------------------------------------------------

    def begin_span(self, time: int, core: int, domain: str) -> None:
        """Mark that ``domain`` starts executing on ``core``."""
        if core in self._open_spans:
            self.end_span(time, core)
        self._open_spans[core] = (domain, time)

    def end_span(self, time: int, core: int) -> None:
        """Close the open execution span on ``core`` (no-op if none)."""
        open_span = self._open_spans.pop(core, None)
        if open_span is None:
            return
        domain, start = open_span
        if time > start:
            self.monitor.span(core, domain, start, time)
            if self.enabled:
                self.spans.append(ExecutionSpan(core, domain, start, time))
        elif time < start:
            self.monitor.backwards_span(core, domain, start, time)

    def insert_span(self, core: int, domain: str, start: int, end: int) -> None:
        """Record a closed span directly, keeping end-time order.

        ``end_span`` appends because real time only moves forward; span
        coalescing (:meth:`repro.hw.core.PhysicalCore.execute_span`)
        synthesizes past chunks retroactively, so their spans must be
        placed where a live run would have appended them.  Within one
        end time the new span goes after existing ones — the order a
        same-instant append would have produced.  Zero-length spans are
        dropped, matching :meth:`end_span`.
        """
        if end <= start:
            if end < start:
                self.monitor.backwards_span(core, domain, start, end)
            return
        self.monitor.span(core, domain, start, end)
        if not self.enabled:
            return
        spans = self.spans
        if not spans or spans[-1].end <= end:
            spans.append(ExecutionSpan(core, domain, start, end))
            return
        index = bisect_right(spans, end, key=lambda s: s.end)
        spans.insert(index, ExecutionSpan(core, domain, start, end))

    def close_all_spans(self, time: int) -> None:
        for core in list(self._open_spans):
            self.end_span(time, core)

    # -- queries ----------------------------------------------------------

    def _stored_spans(self, query: str) -> List[ExecutionSpan]:
        if not self.enabled:
            raise SimulationError(
                f"Tracer.{query} reads stored spans, and an untraced "
                "run stores none: build the system with "
                "SystemConfig(trace_schedules=True)"
            )
        return self.spans

    def spans_on_core(self, core: int) -> Iterator[ExecutionSpan]:
        spans = self._stored_spans("spans_on_core")
        return (s for s in spans if s.core == core)

    def domains_on_core(self, core: int) -> List[str]:
        """Distinct domains that ever executed on ``core``, in order."""
        seen: List[str] = []
        for span in self._stored_spans("domains_on_core"):
            if span.core == core and span.domain not in seen:
                seen.append(span.domain)
        return seen

    def busy_time(self, core: Optional[int] = None, domain: Optional[str] = None) -> int:
        """Total span time, filtered by core and/or domain (from the
        monitor's totals, so untraced runs answer too)."""
        return self.monitor.busy_time(core, domain)
