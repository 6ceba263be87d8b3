"""Host thread model.

Host-side activities (KVM vCPU threads, the wake-up thread, VMM I/O
threads, kernel housekeeping) are *threads* scheduled by the host
kernel model.  A thread body is a generator yielding thread actions:

===========  =============================================================
``TCompute``  burn CPU on the current core (optionally as a guest domain,
              for shared-core guest execution inside a vCPU thread)
``TSlices``   up to N back-to-back host ``TCompute`` slices with nothing
              observed between them (the yield evaluates to how many
              ran, at least one)
``TBlock``    deschedule until an event fires (the yield evaluates to the
              event's value)
``TSleep``    deschedule for a fixed time
``TYield``    cooperative yield (round-robin)
``TSpin``     busy-wait on an event while *occupying the core* -- used by
              synchronous RPC clients and the Quarantine-style polling
              ablation
===========  =============================================================
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Set

from ..isa.worlds import SecurityDomain
from ..sim.engine import Event

__all__ = [
    "TCompute",
    "TSlices",
    "TBlock",
    "TSleep",
    "TYield",
    "TSpin",
    "SchedClass",
    "ThreadState",
    "HostThread",
]


@dataclass
class TCompute:
    work_ns: int
    #: None means host-kernel/userspace work (the host domain); vCPU
    #: threads pass the guest's domain for guest execution segments
    domain: Optional[SecurityDomain] = None
    #: when True, an interrupt hands control back to the thread body
    #: with the remaining work (VM-exit semantics for guest segments)
    return_on_irq: bool = False


@dataclass
class TSlices:
    """Up to ``count`` host slices of ``work_ns`` each, as if yielded
    as that many ``TCompute(work_ns)`` with the body looking at nothing
    in between.  The kernel retires as many as provably overlap no other
    event in one wait (at least one, with normal interrupt handling
    otherwise) and sends the body the number retired."""

    work_ns: int
    count: int


@dataclass
class TBlock:
    event: Event


@dataclass
class TSleep:
    ns: int


@dataclass
class TYield:
    pass


@dataclass
class TSpin:
    """Busy-wait on ``event``; the core stays 100% busy meanwhile."""

    event: Event


class SchedClass:
    FAIR = "fair"
    FIFO = "fifo"  # real-time class; always preempts fair threads


class ThreadState:
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


_thread_ids = itertools.count()


class HostThread:
    """One host OS thread."""

    def __init__(
        self,
        name: str,
        body: Generator,
        sched_class: str = SchedClass.FAIR,
        affinity: Optional[Set[int]] = None,
    ):
        self.tid = next(_thread_ids)
        self.name = name
        self.body = body
        self.sched_class = sched_class
        self.affinity = set(affinity) if affinity is not None else None
        self.state = ThreadState.RUNNABLE
        self.last_core: Optional[int] = None
        #: value to send into the body on next resume
        self.send_value: Any = None
        #: an action carried over after preemption (compute remainder
        #: or an interrupted spin)
        self.pending_action: Any = None
        self.cpu_ns = 0
        self.result: Any = None
        self.done_event = Event(f"done:{name}")
        #: per-cpu kernel threads are parked (not migrated) on hotplug
        self.per_cpu = False

    def allowed_on(self, core_index: int) -> bool:
        return self.affinity is None or core_index in self.affinity

    def __repr__(self) -> str:
        return (
            f"HostThread({self.name!r}, {self.sched_class}, {self.state})"
        )
