"""Set-associative cache model with security-domain tagging.

Two consumers:

* the security analysis (``repro.security``) replays real access
  sequences through this model to demonstrate prime+probe attacks and
  to show which structures are per-core (core gapping removes them from
  the attack surface) versus shared (LLC, out of scope per the threat
  model);
* the auditor, which checks that after core gapping no line in a
  *core-private* cache is ever observed by a distrusting domain.

The model is a true set-associative cache with LRU replacement; each
line remembers the security domain that filled it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..isa.worlds import SecurityDomain

__all__ = ["CacheGeometry", "CacheLine", "SetAssociativeCache", "AccessResult"]


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    ways: int
    shared: bool = False  # True for LLC (off-core, out of threat-model scope)

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*ways={self.line_bytes * self.ways}"
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    def set_index(self, addr: int) -> int:
        return (addr // self.line_bytes) % self.n_sets

    def tag(self, addr: int) -> int:
        return addr // (self.line_bytes * self.n_sets)


@dataclass
class CacheLine:
    """One filled cache line: its tag and the domain that filled it."""

    tag: int
    domain: SecurityDomain
    last_touch: int = 0  # monotonic counter for LRU


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one access: hit/miss and what was evicted (if anything)."""

    hit: bool
    set_index: int
    evicted: Optional[CacheLine] = None


class SetAssociativeCache:
    """An LRU set-associative cache whose lines carry domain tags."""

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self._sets: List[List[CacheLine]] = [
            [] for _ in range(geometry.n_sets)
        ]
        self._tick = 0
        self.hits = 0
        self.misses = 0

    # -- core operations --------------------------------------------------

    def access(self, addr: int, domain: SecurityDomain) -> AccessResult:
        """Access ``addr`` as ``domain``: hit updates LRU, miss fills."""
        self._tick += 1
        set_index = self.geometry.set_index(addr)
        tag = self.geometry.tag(addr)
        lines = self._sets[set_index]
        for line in lines:
            if line.tag == tag:
                line.last_touch = self._tick
                line.domain = domain
                self.hits += 1
                return AccessResult(hit=True, set_index=set_index)
        self.misses += 1
        evicted = None
        if len(lines) >= self.geometry.ways:
            victim = min(lines, key=lambda l: l.last_touch)
            lines.remove(victim)
            evicted = victim
        lines.append(CacheLine(tag=tag, domain=domain, last_touch=self._tick))
        return AccessResult(hit=False, set_index=set_index, evicted=evicted)

    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (a timing-attack primitive)."""
        set_index = self.geometry.set_index(addr)
        tag = self.geometry.tag(addr)
        return any(line.tag == tag for line in self._sets[set_index])

    def flush(self) -> int:
        """Invalidate everything; returns the number of lines dropped.

        Runs on every flush-on-switch, usually over nearly empty sets,
        so only the occupied sets are visited and cleared in place.
        """
        dropped = 0
        for lines in filter(None, self._sets):
            dropped += len(lines)
            lines.clear()
        return dropped

    def flush_domain(self, domain: SecurityDomain) -> int:
        """Invalidate only one domain's lines (selective flush)."""
        dropped = 0
        for lines in self._sets:
            keep = [l for l in lines if l.domain != domain]
            dropped += len(lines) - len(keep)
            lines[:] = keep
        return dropped

    # -- inspection (used by the auditor and attacks) ----------------------

    def domains_present(self) -> Set[SecurityDomain]:
        return {line.domain for lines in self._sets for line in lines}

    def set_occupancy(self, set_index: int) -> List[CacheLine]:
        return list(self._sets[set_index])

    def occupancy_by_domain(self) -> Dict[SecurityDomain, int]:
        counts: Dict[SecurityDomain, int] = {}
        for lines in self._sets:
            for line in lines:
                counts[line.domain] = counts.get(line.domain, 0) + 1
        return counts

    @property
    def filled_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:
        g = self.geometry
        return (
            f"SetAssociativeCache({g.name}: {g.size_bytes >> 10} KiB, "
            f"{g.ways}-way, {g.n_sets} sets)"
        )


#: Typical Arm server cache geometries (AmpereOne-like).
L1D_GEOMETRY = CacheGeometry("L1D", 64 * 1024, 64, 8)
L1I_GEOMETRY = CacheGeometry("L1I", 64 * 1024, 64, 8)
L2_GEOMETRY = CacheGeometry("L2", 2 * 1024 * 1024, 64, 8)
LLC_GEOMETRY = CacheGeometry("LLC", 64 * 1024 * 1024, 64, 16, shared=True)
