"""Experiment configurations and calibration targets.

``SystemConfig`` selects one column of the evaluation matrix:

===============  ==============================================================
``shared``        paper baseline: non-confidential shared-core VM
``shared-cvm``    extrapolated shared-core *confidential* VM (S5.1/S5.5 argue
                  core gapping looks even better against this; we can measure)
``gapped``        core-gapped CVM (the contribution)
===============  ==============================================================

plus the two fig. 6 ablations: ``busywait=True`` (Quarantine-style
yield-polling run calls) and ``delegation=False`` (no RMM interrupt
delegation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..costs import CostModel, DEFAULT_COSTS
from ..hw.policy import IsolationPolicy, default_policy_name, resolve_policy
from ..sim.clock import ms, us

__all__ = ["SystemConfig", "PAPER_TARGETS"]


@dataclass(frozen=True)
class SystemConfig:
    """Knobs for building one simulated system."""

    mode: str = "gapped"  # shared | shared-cvm | gapped
    n_cores: int = 16
    #: host cores reserved for exit handling / VMM threads (gapped mode);
    #: the paper's experiments use exactly one
    n_host_cores: int = 1
    busywait: bool = False
    delegation: bool = True
    #: per-core kernel background noise (period, burst); None disables.
    #: Defaults model kworkers/RCU/timers on an idle cloud host.
    housekeeping: Optional[Tuple[int, int]] = (ms(10), us(150))
    seed: int = 0
    trace_schedules: bool = False
    #: same-timestamp event ordering ("fifo" | "lifo" | "seeded:N").
    #: Anything but the default exists for the schedule-race sanitizer
    #: (repro.lint.sanitizer); results must not depend on it.
    tie_break: str = "fifo"
    #: retired: no longer settable and read by nothing.  Kept only
    #: because recorded result digests embed every field of an embedded
    #: SystemConfig; drop them when those digests are next re-recorded.
    scheduler: str = field(default="calendar", init=False)
    coalesce_compute: bool = field(default=False, init=False)
    #: isolation policy ("core-gap" | "flush" | "none"); None derives
    #: the policy the mode always implied (gapped -> core-gap,
    #: shared-cvm -> flush, shared -> none), which is bit-identical to
    #: pre-policy behavior.  See repro.hw.policy.
    policy: Optional[str] = None

    def __post_init__(self) -> None:
        # fail at construction, not mid-boot, on an illegal pair
        # (e.g. mode="gapped" with policy="flush")
        resolve_policy(self.mode, self.policy)

    @property
    def is_gapped(self) -> bool:
        return self.mode == "gapped"

    def resolved_policy_name(self) -> str:
        """The effective policy name (explicit, or derived from mode)."""
        if self.policy is not None:
            return self.policy
        return default_policy_name(self.mode)

    def resolved_policy(self) -> IsolationPolicy:
        """The strategy object the System threads through its stack."""
        return resolve_policy(self.mode, self.policy)

    def label(self) -> str:
        parts = [self.mode]
        if self.is_gapped:
            if self.busywait:
                parts.append("busywait")
            if not self.delegation:
                parts.append("nodeleg")
        if self.resolved_policy_name() != default_policy_name(self.mode):
            parts.append(f"policy={self.policy}")
        return "+".join(parts)


#: the paper's published numbers, used by benches to report side by side
PAPER_TARGETS = {
    "table2_async_ns": 2757.6,
    "table2_sync_ns": 257.7,
    "table2_samecore_ns": 12_800.0,
    "table3_vipi_nodeleg_us": 43.9,
    "table3_vipi_deleg_us": 2.22,
    "table3_vipi_shared_us": 3.85,
    "table4_irq_exits_nodeleg": 33_954,
    "table4_irq_exits_deleg": 390,
    "table4_total_exits_nodeleg": 37_712,
    "table4_total_exits_deleg": 1_324,
    "run_to_run_us": 26.18,
    "table5": {
        "SET": {"shared": (51.7, 0.52, 0.60, 1.20), "gapped": (56.2, 0.63, 0.97, 1.44)},
        "GET": {"shared": (48.8, 0.54, 0.64, 1.20), "gapped": (55.3, 0.57, 0.78, 1.24)},
        "LRANGE_100": {"shared": (11.6, 1.51, 2.03, 2.38), "gapped": (14.5, 1.24, 1.56, 1.82)},
    },
}
