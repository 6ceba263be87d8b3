"""The assembled machine: cores, GIC, timers, LLC, memory, tracer.

Everything above the hardware (RMM, host OS, guests) receives a
:class:`Machine` and builds on its mechanisms.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.engine import Simulator
from ..sim.rng import RngFactory, bare_factory
from ..sim.trace import Tracer
from .cache import SetAssociativeCache
from .core import PhysicalCore
from .gic import Gic
from .memory import PhysicalMemory
from .timer import CoreTimer
from .topology import AMPERE_ONE_LIKE, SocTopology
from .uarch import PollutionCosts

__all__ = ["Machine"]

GIB = 1024 * 1024 * 1024


class Machine:
    """A simulated server."""

    def __init__(
        self,
        topology: SocTopology = AMPERE_ONE_LIKE,
        sim: Optional[Simulator] = None,
        tracer: Optional[Tracer] = None,
        rng: Optional[RngFactory] = None,
        pollution_costs: Optional[PollutionCosts] = None,
    ):
        self.topology = topology
        self.sim = sim or Simulator()
        self.tracer = tracer or Tracer(enabled=True)
        self.rng = rng if rng is not None else bare_factory("hw.machine")
        self.pollution_costs = pollution_costs or PollutionCosts()
        self.gic = Gic(
            self.sim,
            topology.n_cores,
            wire_delay_ns=topology.ipi_wire_delay_ns,
            tracer=self.tracer,
        )
        self.timers: List[CoreTimer] = [
            CoreTimer(self.sim, self.gic, i) for i in range(topology.n_cores)
        ]
        self.llc = SetAssociativeCache(topology.llc_geometry)
        self.memory = PhysicalMemory(topology.memory_gib * GIB)
        self.cores: List[PhysicalCore] = [
            PhysicalCore(self, i) for i in range(topology.n_cores)
        ]

    @property
    def now(self) -> int:
        return self.sim.now

    def core(self, index: int) -> PhysicalCore:
        return self.cores[index]

    @property
    def n_cores(self) -> int:
        return self.topology.n_cores

    def online_cores(self) -> List[PhysicalCore]:
        return [c for c in self.cores if c.online]
