"""CPU hotplug: gracefully handing cores between host and monitor.

The paper's insight (S4.2, inspired by AWS Nitro Enclaves): Linux's
existing hotplug machinery already migrates tasks away, retargets
interrupts, and marks a core unusable.  The prototype's only changes
are (1) skipping the frequency-scaling clean-up so "offline" cores stay
at full clock, and (2) ending the shutdown path with a call into the
monitor instead of halting the core.

Both transitions are symmetric and idempotence-safe: a wrong-state
request (offlining an offline core, onlining an online one) raises a
typed :class:`HotplugError` *before* any state is touched, and a
fault-injected mid-transition abort (``kernel.fault_hooks["hotplug"]``)
likewise fires before the first mutation, so an aborted transition
leaves the core exactly as it found it.

The transitions live on a :class:`HotplugController` bound to one host
kernel.  Every transition — successful or aborted — is appended to the
controller's typed log (:class:`HotplugResult`), which the elastic
fleet sweep reads for its timeline and :meth:`HotplugController.audit`
cross-checks against the tracer counters and the cores' online bits.
Code that needs the machine's history goes through the planner's
controller (``planner.hotplug``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..costs import CostModel, DEFAULT_COSTS
from ..sim.engine import SimulationError
from .kernel import HostKernel
from .threads import TCompute, TSleep

__all__ = [
    "HotplugError",
    "HotplugResult",
    "HotplugController",
]


class HotplugError(SimulationError):
    """A hotplug transition was requested from the wrong state, or was
    aborted mid-way (fault injection).  Host-visible only."""


@dataclass(frozen=True)
class HotplugResult:
    """One logged hotplug transition (symmetric for both directions)."""

    direction: str  # "offline" | "online"
    core: int
    ok: bool
    started_ns: int
    finished_ns: int
    error: str = ""

    @property
    def duration_ns(self) -> int:
        return self.finished_ns - self.started_ns


class HotplugController:
    """Hotplug transitions for one kernel, with a consumable log.

    The planner owns one controller per server
    (:attr:`~repro.host.planner.CorePlanner.hotplug`); every core it
    acquires or reclaims flows through here, so the log is the complete
    hotplug history of the machine.
    """

    def __init__(self, kernel: HostKernel, costs: CostModel = DEFAULT_COSTS):
        self.kernel = kernel
        self.costs = costs
        self.log: List[HotplugResult] = []

    # ------------------------------------------------------------------
    # transitions (thread-body generator fragments)
    # ------------------------------------------------------------------

    def _check_abort(self, direction: str, index: int) -> None:
        """Consult the fault-injection hook; placed before any mutation
        so an abort needs no rollback."""
        hook = self.kernel.fault_hooks.get("hotplug")
        if hook is not None and hook(direction, index):
            self.kernel.machine.tracer.count("hotplug_abort")
            raise HotplugError(
                f"hotplug {direction} of core {index} aborted mid-transition"
            )

    def _record(
        self, direction: str, index: int, started_ns: int, error: str = ""
    ) -> None:
        self.log.append(
            HotplugResult(
                direction=direction,
                core=index,
                ok=not error,
                started_ns=started_ns,
                finished_ns=self.kernel.sim.now,
                error=error,
            )
        )

    def offline(self, index: int, fallback_core: int):
        """Take a core offline (thread-body generator fragment).

        Afterwards the host scheduler no longer uses the core; its
        clock stays up (the skipped frequency-scaling step) so the
        monitor can take it over immediately.
        """
        machine = self.kernel.machine
        core = machine.core(index)
        if not core.online:
            raise HotplugError(f"core {index} already offline")
        started_ns = self.kernel.sim.now
        # the hotplug state machine runs work on several CPUs and waits
        # for RCU grace periods; we charge a little CPU and mostly wall
        # time
        yield TCompute(50_000)
        yield TSleep(self.costs.hotplug_offline_ns)
        try:
            self._check_abort("offline", index)
        except HotplugError as exc:
            self._record("offline", index, started_ns, error=str(exc))
            raise
        self.kernel.migrate_all_from(index)
        machine.gic.retarget_spis_away_from(index, fallback=fallback_core)
        core.set_online(False)
        # NOTE: the stock shutdown path would now drop the core's
        # frequency and halt it; the core-gapping patch skips that
        # (S4.2) and instead transfers control to the monitor (done by
        # the caller).
        self.kernel.kick_core(index)  # make its scheduler loop notice + exit
        machine.tracer.count("hotplug_offline")
        self._record("offline", index, started_ns)
        return index

    def online(self, index: int):
        """Bring a reclaimed core back online for the host."""
        machine = self.kernel.machine
        core = machine.core(index)
        if core.online:
            raise HotplugError(f"core {index} already online")
        started_ns = self.kernel.sim.now
        yield TCompute(30_000)
        yield TSleep(self.costs.hotplug_online_ns)
        try:
            self._check_abort("online", index)
        except HotplugError as exc:
            self._record("online", index, started_ns, error=str(exc))
            raise
        core.irq.reset()
        core.set_online(True)
        self.kernel.start_core(index)
        self.kernel.unpark_for_core(index)
        machine.tracer.count("hotplug_online")
        self._record("online", index, started_ns)
        return index

    # ------------------------------------------------------------------
    # log views + audit
    # ------------------------------------------------------------------

    def transitions(self, direction: Optional[str] = None) -> List[HotplugResult]:
        """Logged transitions, optionally filtered by direction."""
        if direction is None:
            return list(self.log)
        return [r for r in self.log if r.direction == direction]

    def audit(self) -> List[str]:
        """Cross-check the log against counters and the cores' state.

        Returns human-readable problems (empty when clean):

        * successful offline/online totals must equal the tracer's
          ``hotplug_offline``/``hotplug_online`` counters (the log and
          the metrics must tell the same story);
        * replaying the log per core must land on the core's actual
          ``online`` bit (no transition happened behind the log's back).
        """
        problems: List[str] = []
        machine = self.kernel.machine
        counters = machine.tracer.counters
        for direction in ("offline", "online"):
            logged = sum(
                1 for r in self.log if r.direction == direction and r.ok
            )
            counted = int(counters.get(f"hotplug_{direction}", 0))
            if logged != counted:
                problems.append(
                    f"hotplug log records {logged} {direction} "
                    f"transition(s) but the hotplug_{direction} counter "
                    f"says {counted}"
                )
        final: dict = {}
        for result in self.log:
            if result.ok:
                final[result.core] = result.direction == "online"
        for index, expect_online in sorted(final.items()):
            actual = machine.core(index).online
            if actual != expect_online:
                problems.append(
                    f"core {index}: log ends with "
                    f"{'online' if expect_online else 'offline'} but the "
                    f"core is {'online' if actual else 'offline'}"
                )
        return problems

