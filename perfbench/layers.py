"""The traced run's per-layer split, measured from the benchmark's side.

Two instruments, both outside ``src/``:

* a deterministic profiler (``cProfile``) over the run phase, whose
  per-function self time is grouped by the ``repro`` package that
  defines the function.  Self time of code outside ``repro`` (builtins,
  the standard library) goes to the ``repro`` package that called it,
  in proportion to the time each caller spent in it;
* wall timers around the synchronous public calls that the elastic
  lifecycle drives: the four ``FleetController`` verbs and
  ``CoreGapAuditor.audit_schedule``.

Neither sets ``trace_schedules`` nor attaches the engine profiler:
``Machine.coalesce_allowed()`` keys on both, so either would make the
traced run simulate a different event stream.
"""

import contextlib
import pstats
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from worker import clock, patched

#: the layers the run time is split into; every other ``repro``
#: package (experiments, analysis, snap, isa, costs, faults) is "other"
PACKAGES = ("sim", "hw", "rmm", "rpc", "host", "guest", "fleet", "security", "obs")
VERBS = ("admit", "evict", "resize", "migrate")

Func = Tuple[str, int, str]


class WallTimers:
    """Wall time and call counts of the elastic verbs and the audit."""

    def __init__(self) -> None:
        self.verbs_s = 0.0
        self.verb_calls = 0
        self.audit_s = 0.0
        self.audit_calls = 0
        self.spans_scanned = 0

    def install(self, stack: contextlib.ExitStack) -> None:
        from repro.fleet.elastic import FleetController
        from repro.security.audit import CoreGapAuditor

        for verb in VERBS:
            stack.enter_context(patched(FleetController, verb, self._verb))
        stack.enter_context(patched(CoreGapAuditor, "audit_schedule", self._audit))

    def _verb(self, method):
        def timed(*args, **kwargs):
            start = clock()
            try:
                return method(*args, **kwargs)
            finally:
                self.verbs_s += clock() - start
                self.verb_calls += 1

        return timed

    def _audit(self, method):
        def timed(auditor, tracer):
            self.spans_scanned += len(tracer.spans)
            start = clock()
            try:
                return method(auditor, tracer)
            finally:
                self.audit_s += clock() - start
                self.audit_calls += 1

        return timed


def package_of(filename: str, repro: Path) -> Optional[str]:
    """The layer a source file belongs to, or None outside ``repro``."""
    try:
        rel = Path(filename).resolve().relative_to(repro)
    except ValueError:
        return None
    if rel.parts == ("sim", "trace.py"):
        return "obs"  # the span/counter store is observability, not engine
    return rel.parts[0] if rel.parts[0] in PACKAGES else "other"


def self_times(profiler: Any, repro: Path) -> Tuple[Dict[str, float], Dict[Func, Any]]:
    """Self seconds per layer (plus "other"), and the raw profile entries."""
    entries = pstats.Stats(profiler).stats
    owners: Dict[Func, Optional[str]] = {
        func: package_of(func[0], repro) for func in entries
    }
    shares: Dict[Func, Dict[str, float]] = {}

    def share(func: Func, visiting: set) -> Dict[str, float]:
        """Fractions of ``func``'s self time owed to each layer."""
        owner = owners.get(func)
        if owner is not None:
            return {owner: 1.0}
        if func in shares:
            return shares[func]
        if func in visiting or func not in entries:
            return {}  # a recursion cycle or the profile's root
        visiting.add(func)
        callers = entries[func][4]
        total = sum(edge[2] for edge in callers.values())
        result: Dict[str, float] = {}
        for caller, edge in callers.items():
            if total <= 0:
                break
            for layer, frac in share(caller, visiting).items():
                result[layer] = result.get(layer, 0.0) + frac * edge[2] / total
        visiting.discard(func)
        shares[func] = result
        return result

    seconds = {layer: 0.0 for layer in PACKAGES + ("other",)}
    for func, (_, _, self_s, _, _) in entries.items():
        for layer, frac in share(func, set()).items():
            seconds[layer] += frac * self_s
    return seconds, entries


def split(outcome: Any, profiler: Any, timers: WallTimers, phases: Any,
          repro: Path) -> Dict[str, float]:
    """Every per-layer number of one traced sample."""
    seconds, entries = self_times(profiler, repro)
    run_s = phases.done - phases.ready
    layers: Dict[str, float] = {
        f"{layer}.self_s": value for layer, value in seconds.items()
    }
    layers["trace.unattributed_s"] = run_s - sum(seconds.values())
    layers["hw.execute_calls"] = sum(
        entry[1]
        for func, entry in entries.items()
        if func[2] == "execute" and func[0].endswith(str(Path("hw", "core.py")))
    )
    systems = outcome.systems
    layers["sim.events"] = sum(system.sim._seq for system in systems)
    layers["host.exits"] = sum(
        system.exit_counts().get("exits_total", 0) for system in systems
    )
    layers["obs.spans_stored"] = sum(len(system.tracer.spans) for system in systems)
    layers["fleet.requests"] = sum(row[1] for row in outcome.tenants)
    layers["fleet.completed"] = sum(row[2] for row in outcome.tenants)
    layers["fleet.dropped"] = sum(row[3] for row in outcome.tenants)
    layers["fleet.verbs_s"] = timers.verbs_s
    layers["fleet.verbs"] = timers.verb_calls
    layers["security.audit_s"] = timers.audit_s
    layers["security.audit_calls"] = timers.audit_calls
    layers["security.spans_scanned"] = timers.spans_scanned
    layers["setup.import_s"] = phases.imported - phases.start
    layers["setup.boot_s"] = phases.ready - phases.imported
    return layers
