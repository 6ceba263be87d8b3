"""A fixed reference load that measures how fast this host is right now.

Shared hosts change speed by tens of percent over tens of seconds, more
than any change worth catching.  Each sample (``worker.py``) times this
load just before its set-up and just after its run, and ``run.py``
reports host times scaled to the speed it measured.  The load stands in
for the simulator's hot path: generator processes resumed from a heap,
small objects appended to a growing list, string-keyed counters.  It never changes with the simulator, so the
scaling is the same for every commit.
"""

import heapq
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List


@dataclass
class _Span:
    core: int
    domain: str
    start: int
    end: int


class _Core:
    def __init__(self, index: int):
        self.index = index
        self.busy = 0
        self.counters: Dict[str, int] = {}

    def execute(self, domain: str, now: int, cost: int, spans: List[_Span]) -> int:
        self.busy += cost
        self.counters[domain] = self.counters.get(domain, 0) + 1
        spans.append(_Span(self.index, domain, now, now + cost))
        return now + cost


def _vcpu(core: _Core, domain: str, steps: int, spans: List[_Span],
          stats: Dict[str, int]) -> Iterator[int]:
    now = 0
    for step in range(steps):
        cost = 50 + (step * 37 + core.index * 11) % 400
        now = core.execute(domain, now, cost, spans)
        stats[domain] = stats.get(domain, 0) + cost
        yield cost


def reference_load(n_cores: int = 16, steps: int = 6000) -> int:
    """Run the load; returns its event count (always the same)."""
    spans: List[_Span] = []
    stats: Dict[str, int] = {}
    heap = []
    for core in map(_Core, range(n_cores)):
        body = _vcpu(core, f"realm:{core.index % 4}", steps, spans, stats)
        heap.append((0, core.index, body))
    heapq.heapify(heap)
    seq = n_cores
    while heap:
        now, _, body = heapq.heappop(heap)
        try:
            delay = next(body)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, body))
    return seq


def time_reference_load() -> float:
    """Host seconds the reference load takes right now."""
    start = time.perf_counter()  # lint: allow(DET001) - host speed probe
    reference_load()
    return time.perf_counter() - start  # lint: allow(DET001)
