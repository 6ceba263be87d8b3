"""CoreMark-PRO-like CPU-intensive workload (figs. 6, 7; Table 4).

CoreMark-PRO runs a fixed mix of integer/floating kernels and reports a
throughput score.  For the reproduction what matters is its interaction
pattern with the virtualization layer: pure computation in long bursts,
perturbed only by guest timer ticks -- which is why >90% of its VM exits
are timer-related (S4.4).  We model each vCPU as an endless sequence of
compute chunks and derive the score from useful compute retired per unit
of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator

from ...sim.clock import us
from ..actions import Compute
from ..vm import GuestVm

__all__ = ["CoremarkStats", "coremark_workload_factory", "coremark_score"]

#: score units per core-second of retired compute; chosen so a 16-core
#: run lands in the same ballpark as published AmpereOne CoreMark-PRO
#: results (a few tens of thousands of "marks")
SCORE_PER_CORE_SECOND = 15_000.0

#: one inner CoreMark kernel iteration batch
DEFAULT_CHUNK_NS = us(500)


@dataclass
class CoremarkStats:
    """Aggregated over all vCPUs of one VM."""

    chunks_completed: int = 0
    per_vcpu_chunks: Dict[int, int] = field(default_factory=dict)

    def note_chunk(self, vcpu_index: int) -> None:
        self.chunks_completed += 1
        self.per_vcpu_chunks[vcpu_index] = (
            self.per_vcpu_chunks.get(vcpu_index, 0) + 1
        )


def coremark_workload_factory(
    stats: CoremarkStats, chunk_ns: int = DEFAULT_CHUNK_NS
):
    """Returns a workload factory for :class:`repro.guest.vm.GuestVm`."""

    def factory(vm: GuestVm, index: int) -> Generator:
        return _coremark_vcpu(stats, index, chunk_ns)

    return factory


def _coremark_vcpu(
    stats: CoremarkStats, index: int, chunk_ns: int
) -> Generator:
    while True:
        yield Compute(chunk_ns)
        stats.note_chunk(index)


def coremark_score(
    stats: CoremarkStats, duration_ns: int, chunk_ns: int = DEFAULT_CHUNK_NS
) -> float:
    """Convert retired chunks into a CoreMark-PRO-style score."""
    if duration_ns <= 0:
        return 0.0
    core_seconds = stats.chunks_completed * chunk_ns / 1e9
    wall_seconds = duration_ns / 1e9
    return SCORE_PER_CORE_SECOND * core_seconds / wall_seconds
