"""The core-gap auditor: proving the invariant over simulated schedules.

The paper's security argument (S3) reduces to two checkable properties:

(a) all instructions of a confidential vCPU execute on one core, and
(b) from first to last instruction, only guest-trusted code (the
    monitor) runs on that core.

The auditor reads the tracer's tenure monitor, which checks every
execution span -- the ground truth of which security domain occupied
which core when -- as it closes.  It reports every violation: a pair
of mutually distrusting domains that both executed on one physical
core, one inside the other's occupancy window.  It also audits
*residual microarchitectural state*: after a run, no core-private
structure may hold a distrusting pair.

Run on shared-core schedules it reports exactly the sharing the paper
calls leaking; on core-gapped schedules it must return clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..hw.machine import Machine
from ..isa.worlds import (
    HOST_DOMAIN,
    IDLE_DOMAIN,
    MONITOR_DOMAIN,
    ROOT_DOMAIN,
    SecurityDomain,
    World,
    realm_domain,
)
from ..sim.trace import Tracer

__all__ = [
    "SharingViolation",
    "ResidencyViolation",
    "AuditReport",
    "CoreGapAuditor",
    "audit_conservation",
]


@dataclass(frozen=True)
class SharingViolation:
    """Two distrusting domains executed on the same core."""

    core: int
    domain_a: str
    domain_b: str
    #: first time each domain was seen on the core
    first_a: int
    first_b: int

    def __str__(self) -> str:
        return (
            f"core {self.core}: {self.domain_a} (t={self.first_a}) and "
            f"{self.domain_b} (t={self.first_b}) shared the core"
        )


@dataclass(frozen=True)
class ResidencyViolation:
    """A core-private structure holds state of distrusting domains."""

    core: int
    structure: str
    domains: Tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"core {self.core}: {self.structure} holds state of "
            f"{', '.join(self.domains)}"
        )


@dataclass
class AuditReport:
    sharing: List[SharingViolation] = field(default_factory=list)
    residency: List[ResidencyViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.sharing and not self.residency

    def summary(self) -> str:
        if self.clean:
            return "AUDIT CLEAN: no distrusting domains ever shared a core"
        lines = [
            f"AUDIT FAILED: {len(self.sharing)} sharing violations, "
            f"{len(self.residency)} residency violations"
        ]
        lines += [f"  {v}" for v in self.sharing[:20]]
        lines += [f"  {v}" for v in self.residency[:20]]
        return "\n".join(lines)


def audit_conservation(
    tracer: Tracer, end_ns: int, start_ns: int = 0
) -> List[str]:
    """Accounting invariants (#8) that must hold on any schedule, fault
    injected or not.  Returns human-readable problems ([] when clean).

    * exit-count conservation: ``exits_total`` equals the sum of the
      per-reason ``exit:*`` counters (an exit that is counted must be
      attributed, and vice versa);
    * CPU-time conservation: per core, the summed execution-span time
      cannot exceed the wall-clock window, and no span runs backwards
      or escapes the window.

    The span checks read the tracer's tenure monitor, which sees every
    span whether or not the spans are stored.
    """
    problems: List[str] = []
    counters = tracer.counters
    exits_total = int(counters.get("exits_total", 0))
    by_reason = sum(
        int(v) for k, v in counters.items() if k.startswith("exit:")
    )
    if exits_total != by_reason:
        problems.append(
            f"exit counts unbalanced: exits_total={exits_total} but "
            f"sum(exit:*)={by_reason}"
        )
    monitor = tracer.monitor
    for core, (domain, start, end) in sorted(monitor.backwards.items()):
        problems.append(
            f"core {core}: span for {domain} runs backwards ({start}..{end})"
        )
    wall = end_ns - start_ns
    for core, (first, last, busy_ns) in monitor.core_windows().items():
        if first < start_ns or last > end_ns:
            problems.append(
                f"core {core}: spans escape the window ({first}..{last} "
                f"vs {start_ns}..{end_ns})"
            )
        if busy_ns > wall:
            problems.append(
                f"core {core}: {busy_ns} ns of execution in a "
                f"{wall} ns window"
            )
    return problems


class CoreGapAuditor:
    """Checks schedules and residual state against the threat model."""

    def __init__(self, domains: Optional[Iterable[SecurityDomain]] = None):
        #: registry for resolving span names back to domain objects
        self._registry: Dict[str, SecurityDomain] = {
            d.name: d
            for d in (HOST_DOMAIN, MONITOR_DOMAIN, ROOT_DOMAIN, IDLE_DOMAIN)
        }
        for domain in domains or ():
            self.register(domain)

    def register(self, domain: SecurityDomain) -> None:
        self._registry[domain.name] = domain

    def _resolve(self, name: str) -> SecurityDomain:
        if name in self._registry:
            return self._registry[name]
        if name.startswith("realm:"):
            domain = realm_domain(int(name.split(":", 1)[1]))
        elif name.startswith("vm:"):
            domain = SecurityDomain(name, World.NORMAL)
        else:
            domain = SecurityDomain(name, World.NORMAL)
        self._registry[name] = domain
        return domain

    # ------------------------------------------------------------------
    # schedule audit
    # ------------------------------------------------------------------

    def audit_schedule(self, tracer: Tracer) -> List[SharingViolation]:
        """Occupancy-window distrust check over every core's history.

        The paper's invariant (S3): from the *first to the last
        instruction* of a vCPU on its core, only guest-trusted code may
        run there.  So two distrusting domains violate the invariant on
        a core iff a span of one falls inside the other's occupancy
        window [first span, last span] -- a host that ran only *before*
        dedication, or a realm that reused a core after another realm
        was destroyed (and its state scrubbed; see the residency
        audit), is legitimate.

        A monitor-mediated unbind or rebind (autoscaler shrink/park,
        evacuation) *ends* the realm's tenure on its core: the core is
        scrubbed and handed back, and a later re-dedication -- even to
        the same realm -- opens a fresh occupancy window.  The monitor
        records each such scrubbed ownership change as a tenure cut
        (:meth:`~repro.sim.trace.Tracer.tenure_cut`), so host spans
        between two tenures of one realm are not violations.

        The windows are checked as the spans close, by the tracer's
        :class:`~repro.sim.tenure.TenureMonitor`, over the whole run so
        far and whether or not spans are stored; this call only keeps
        the sharings where a guest owner distrusts the other domain,
        one per core and domain pair.
        """
        violations: List[SharingViolation] = []
        seen_pairs = set()
        found = sorted(tracer.monitor.sharing, key=lambda share: share[0])
        for core, name, other_name, first, start in found:
            owner = self._resolve(name)
            if not (owner.is_realm or owner.name.startswith("vm:")):
                # the invariant is stated for guests: their occupancy
                # window must be exclusive.  The host's occupancy
                # legitimately has gaps (hotplug off -> realm
                # lifetime -> hotplug on), so it is not a window.
                continue
            if not owner.distrusts(self._resolve(other_name)):
                continue
            key = (core, *sorted((name, other_name)))
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            violations.append(
                SharingViolation(core, name, other_name, first, start)
            )
        return violations

    # ------------------------------------------------------------------
    # residual microarchitectural state audit
    # ------------------------------------------------------------------

    def audit_residency(self, machine: Machine) -> List[ResidencyViolation]:
        """Walk every core-private structure for distrusting co-residency.

        The shared LLC is deliberately excluded: it is out of the threat
        model (S2.4), with hardware partitioning recommended instead.
        """
        violations: List[ResidencyViolation] = []
        for core in machine.cores:
            for name, structure in core.uarch.structures():
                present = structure.domains_present()
                bad = self._distrusting_subsets(present)
                if bad:
                    violations.append(
                        ResidencyViolation(core.index, name, bad)
                    )
        return violations

    def _distrusting_subsets(
        self, present: Set[SecurityDomain]
    ) -> Tuple[str, ...]:
        domains = sorted(present, key=lambda d: d.name)
        for i, dom_a in enumerate(domains):
            for dom_b in domains[i + 1:]:
                if dom_a.distrusts(dom_b):
                    return tuple(d.name for d in domains)
        return ()

    # ------------------------------------------------------------------
    # combined
    # ------------------------------------------------------------------

    def audit(self, machine: Machine, tracer: Optional[Tracer] = None) -> AuditReport:
        tracer = tracer or machine.tracer
        tracer.close_all_spans(machine.sim.now)
        return AuditReport(
            sharing=self.audit_schedule(tracer),
            residency=self.audit_residency(machine),
        )
