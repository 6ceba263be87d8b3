"""The streaming per-core tenure monitor: core-gap facts as spans close.

A domain's *tenure* on a core runs from the first to the last span it
executes there, until a scrubbed ownership change ends it (a tenure
cut, :meth:`TenureMonitor.cut`).  Another domain that executed on the
core inside that window *shared* the core with the tenure's owner --
the fact the paper's invariant (S3) forbids for distrusting guests.

The :class:`~repro.sim.trace.Tracer` feeds the monitor every closed
span and every tenure cut, traced or not, and the monitor checks each
span as it arrives.  It assumes one ordering, and raises
:class:`SpanOrderError` when a feed breaks it:

* on each core, a span starts no earlier than the previous span on
  that core ended (spans of different cores may arrive in any order:
  the quiescent window's retroactive spans arrive after other cores'
  later spans, but in order on their own core);
* a tenure cut for ``(core, domain)`` comes after every span of that
  tenure ended, and the domain's next span there starts at or after
  the cut.

Given that ordering, a foreign span lies inside a tenure window exactly
when it arrived after one of the tenure's spans and the owner then ran
again before its tenure was cut.  So per core the monitor keeps only:

* per domain with an open tenure: its first start, its last end and
  the *pending* foreign domains -- each mapped to the start of its
  first span since the owner's last one;
* the directed ``(owner, foreign)`` pairs already found sharing;
* busy time per domain, and the first start and last end on the core
  (CPU-time conservation).

That is O(cores x domains per core), whatever the run's length.  The
monitor does not judge trust: it reports every ``(core, owner,
foreign)`` sharing once, and :class:`repro.security.CoreGapAuditor`
keeps those where a guest owner distrusts the foreign domain, so the
threat model stays in one place.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .engine import SimulationError

__all__ = ["SpanOrderError", "TenureMonitor"]


class SpanOrderError(SimulationError):
    """A span or tenure cut arrived out of its core's time order."""


class _CoreLog:
    """One core's monitor state (see the module docstring)."""

    __slots__ = ("first", "last", "prev", "busy", "tenures", "found")

    def __init__(self, start: int):
        #: start of the core's first span and end of its latest one
        self.first = start
        self.last = start
        #: domain of the latest span (its marks in the other tenures
        #: are already set, so a repeat span skips the marking loop)
        self.prev: Optional[str] = None
        self.busy: Dict[str, int] = {}
        #: owner -> [first start, last end, pending {foreign: start},
        #: the owner's found set (shared with found[owner])]
        self.tenures: Dict[str, list] = {}
        #: owner -> foreign domains already found sharing its tenures
        self.found: Dict[str, Set[str]] = {}


class TenureMonitor:
    """Checks every closed span against the open tenures of its core."""

    def __init__(self) -> None:
        self._cores: Dict[int, _CoreLog] = {}
        #: (core, domain) -> time of the latest tenure cut
        self._cuts: Dict[Tuple[int, str], int] = {}
        #: (core, owner, foreign, owner's tenure start, foreign start),
        #: one per directed pair and core, in the order found
        self.sharing: List[Tuple[int, str, str, int, int]] = []
        #: core -> (domain, start, end) of its first backwards span
        self.backwards: Dict[int, Tuple[str, int, int]] = {}

    def span(self, core: int, domain: str, start: int, end: int) -> None:
        """Check one closed span ``start < end`` of ``domain``."""
        log = self._cores.get(core)
        if log is None:
            log = self._cores[core] = _CoreLog(start)
        elif start < log.last:
            raise SpanOrderError(
                f"core {core}: span of {domain} starts at {start}, before "
                f"the previous span on the core ended ({log.last})"
            )
        log.last = end
        busy = log.busy
        busy[domain] = busy.get(domain, 0) + (end - start)
        tenures = log.tenures
        tenure = tenures.get(domain)
        if tenure is None:
            self._open(log, core, domain, start, end)
        else:
            if tenure[2]:
                self._share(core, domain, tenure)
            tenure[1] = end
        if log.prev != domain:
            log.prev = domain
            for owner, other in tenures.items():
                if (
                    owner != domain
                    and domain not in other[2]
                    and domain not in other[3]
                ):
                    other[2][domain] = start

    def _open(
        self, log: _CoreLog, core: int, domain: str, start: int, end: int
    ) -> None:
        cut = self._cuts.get((core, domain))
        if cut is not None and start < cut:
            raise SpanOrderError(
                f"core {core}: span of {domain} starts at {start}, before "
                f"its tenure cut at {cut}"
            )
        found = log.found.get(domain)
        if found is None:
            found = log.found[domain] = set()
        log.tenures[domain] = [start, end, {}, found]

    def _share(self, core: int, owner: str, tenure: list) -> None:
        """The owner ran again: every pending foreign span shared."""
        pending = tenure[2]
        for foreign, start in pending.items():
            tenure[3].add(foreign)
            self.sharing.append((core, owner, foreign, tenure[0], start))
        pending.clear()

    def cut(self, time: int, core: int, domain: str) -> None:
        """End ``domain``'s tenure on ``core`` at ``time``."""
        self._cuts[(core, domain)] = time
        log = self._cores.get(core)
        if log is None:
            return
        tenure = log.tenures.pop(domain, None)
        if tenure is not None and tenure[1] > time:
            raise SpanOrderError(
                f"core {core}: tenure cut of {domain} at {time}, before "
                f"its span ending at {tenure[1]}"
            )

    def backwards_span(
        self, core: int, domain: str, start: int, end: int
    ) -> None:
        """Note a span that ends before it starts (never checked)."""
        self.backwards.setdefault(core, (domain, start, end))

    # -- totals -----------------------------------------------------------

    def busy_time(
        self, core: Optional[int] = None, domain: Optional[str] = None
    ) -> int:
        """Checked span time, filtered by core and/or domain."""
        logs = self._cores.values() if core is None else (
            [self._cores[core]] if core in self._cores else []
        )
        if domain is None:
            return sum(sum(log.busy.values()) for log in logs)
        return sum(log.busy.get(domain, 0) for log in logs)

    def core_windows(self) -> Dict[int, Tuple[int, int, int]]:
        """core -> (first start, last end, busy time), in core order."""
        return {
            core: (log.first, log.last, sum(log.busy.values()))
            for core, log in sorted(self._cores.items())
        }
