"""Declarative scenario specs: what to run, not how to wire it.

The imperative incantation every harness used to hand-roll --
``System(SystemConfig(...))`` + ``launch`` + ``add_*`` + ``run_until_*``
-- is replaced by three layers of frozen, order-stable data:

* :class:`VmSpec` -- one guest: vCPUs, workload factory, devices, SLO;
* :class:`TenantSpec` -- a :class:`VmSpec` plus (optionally) the
  open-loop traffic offered to it (:class:`TrafficSpec`);
* :class:`ScenarioSpec` -- a rack: server configs, tenants, arrival
  process seed, and duration.  ``ScenarioSpec.boot()`` places tenants
  onto servers (core-gap-aware bin-packing, admission control) and
  boots every accepted VM into a running :class:`~repro.fleet.scenario.Fleet`.

Because the spec is pure data, the exact same scenario can run
in-process (``spec.boot().run()``), fan out as one runner cell per
server (``repro.fleet.sweep``), or be rebuilt bit-identically inside a
worker process -- same seed, same placement, same trace digests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from ..costs import CostModel, DEFAULT_COSTS
from ..experiments.config import SystemConfig
from ..guest.workloads.redis import OP_GET, RedisOp, redis_server_factory
from ..sim.clock import sec
from ..sim.rng import derive_seed

__all__ = [
    "ADMISSION_MODES",
    "DeviceSpec",
    "VmSpec",
    "TrafficSpec",
    "TenantSpec",
    "ScenarioSpec",
    "redis_tenant",
    "resolve_admission",
    "uniform_rack",
]

#: device kinds the system builder knows how to attach
DEVICE_KINDS = ("virtio-net", "virtio-blk", "sriov-nic")

#: admission behaviours ``ScenarioSpec.boot`` understands: ``strict``
#: raises on any refused tenant, ``best_effort`` boots the placeable
#: subset and reports the rejections on the fleet
ADMISSION_MODES = ("strict", "best_effort")


@dataclass(frozen=True)
class DeviceSpec:
    """One device to attach at boot (maps onto ``System.add_*``)."""

    kind: str  # "virtio-net" | "virtio-blk" | "sriov-nic"
    name: str = ""  # empty = the kind's default name
    echo_peer: bool = False

    def __post_init__(self):
        if self.kind not in DEVICE_KINDS:
            raise ValueError(
                f"unknown device kind {self.kind!r}; expected one of "
                f"{DEVICE_KINDS}"
            )


@dataclass(frozen=True)
class VmSpec:
    """One guest VM: sizing, workload, devices, and its latency SLO.

    ``workload`` follows the :class:`~repro.guest.vm.GuestVm` factory
    contract: ``(vm, vcpu_index) -> Optional[Generator]``.
    """

    name: str
    n_vcpus: int
    workload: Callable
    devices: Tuple[DeviceSpec, ...] = ()
    #: per-request latency budget for SLO accounting (None = no SLO)
    slo_ms: Optional[float] = None
    memory_gib: int = 16

    def __post_init__(self):
        if self.n_vcpus < 1:
            raise ValueError(f"vm {self.name!r}: n_vcpus must be >= 1")


@dataclass(frozen=True)
class TrafficSpec:
    """Open-loop load offered to one tenant.

    The arrival process is seeded per tenant from the server's
    :class:`~repro.sim.rng.RngFactory`, so adding a tenant never
    perturbs the draws any other tenant sees.
    """

    #: mean offered load (requests per second of simulated time)
    rate_rps: float
    #: the request type (reuses the Table 5 Redis cost model)
    op: RedisOp = OP_GET
    #: inter-arrival process; only "poisson" is defined today
    process: str = "poisson"
    #: which of the VmSpec's devices requests arrive through
    device: str = "sriov-net0"

    def __post_init__(self):
        if self.process != "poisson":
            raise ValueError(
                f"unknown arrival process {self.process!r} (only 'poisson')"
            )
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a VM plus the traffic (if any) offered to it."""

    vm: VmSpec
    traffic: Optional[TrafficSpec] = None

    @property
    def name(self) -> str:
        return self.vm.name


@dataclass(frozen=True)
class ScenarioSpec:
    """A rack of servers serving open-loop tenant traffic.

    ``servers`` is one :class:`SystemConfig` per simulated server;
    servers are independent machines (no cross-server traffic), which
    is what lets a scenario fan out as one runner cell per server
    (:func:`~repro.fleet.scenario.boot_server` +
    :func:`~repro.fleet.scenario.run_server`, as ``repro.fleet.sweep``
    does).
    """

    servers: Tuple[SystemConfig, ...]
    tenants: Tuple[TenantSpec, ...]
    duration_ns: int = sec(1)
    #: extra time after arrivals stop for in-flight requests to finish
    drain_ns: int = 50_000_000
    seed: int = 0
    #: bin-packing strategy: "pack" (consolidate, best-fit) or
    #: "spread" (balance, emptiest-first)
    placement: str = "pack"

    def __post_init__(self):
        if not self.servers:
            raise ValueError("scenario needs at least one server")
        if self.placement not in ("pack", "spread"):
            raise ValueError(
                f"unknown placement strategy {self.placement!r} "
                "(expected 'pack' or 'spread')"
            )
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")

    def boot(
        self,
        costs: CostModel = DEFAULT_COSTS,
        admission: Optional[str] = None,
        strict: Optional[bool] = None,
    ):
        """Place + boot into a running :class:`~repro.fleet.scenario.Fleet`.

        ``admission="strict"`` (the default) raises
        :class:`~repro.fleet.placement.FleetAdmissionError` if any
        tenant cannot be admitted; ``admission="best_effort"`` boots
        the placeable subset and reports the rejections on the fleet.

        The boolean ``strict=`` keyword is deprecated; it maps onto the
        admission modes and warns.

        Static boot is the degenerate case of the elastic lifecycle
        API: the returned fleet carries the
        :class:`~repro.fleet.elastic.FleetController` that built it as
        ``fleet.controller``, with the boot-time placement recorded on
        its event timeline.
        """
        admission = resolve_admission(admission, strict)
        from .scenario import boot_scenario  # lazy: avoid import cycle

        return boot_scenario(self, costs=costs, admission=admission)


def resolve_admission(
    admission: Optional[str], strict: Optional[bool] = None
) -> str:
    """Normalize the admission argument, warning on the old boolean.

    ``boot(strict=True/False)`` was a boolean trap (``boot(False)``
    read as nothing); the enum spells the behaviour out.  Passing both
    spellings is an error; passing neither means ``"strict"``.
    """
    if strict is not None:
        if admission is not None:
            raise TypeError(
                "pass either admission= or the deprecated strict=, not both"
            )
        warnings.warn(
            "ScenarioSpec.boot(strict=...) is deprecated; use "
            "admission='strict' or admission='best_effort'",
            DeprecationWarning,
            stacklevel=3,
        )
        admission = "strict" if strict else "best_effort"
    if admission is None:
        admission = "strict"
    if admission not in ADMISSION_MODES:
        raise ValueError(
            f"unknown admission mode {admission!r}; expected one of "
            f"{ADMISSION_MODES}"
        )
    return admission


# ---------------------------------------------------------------------------
# convenience constructors


def redis_tenant(
    name: str,
    n_vcpus: int,
    rate_rps: float,
    op: RedisOp = OP_GET,
    slo_ms: float = 2.0,
    costs: CostModel = DEFAULT_COSTS,
) -> TenantSpec:
    """The standard serving tenant: a Redis guest behind an SR-IOV VF.

    Mirrors the Table 5 single-server setup (single-threaded Redis on
    vCPU 0, remaining vCPUs background load) with open-loop arrivals
    instead of 50 closed-loop clients.
    """
    device = "sriov-net0"
    return TenantSpec(
        vm=VmSpec(
            name=name,
            n_vcpus=n_vcpus,
            workload=redis_server_factory(device, costs),
            devices=(DeviceSpec("sriov-nic", device),),
            slo_ms=slo_ms,
        ),
        traffic=TrafficSpec(rate_rps=rate_rps, op=op, device=device),
    )


def uniform_rack(
    n_servers: int, template: SystemConfig, seed: int = 0
) -> Tuple[SystemConfig, ...]:
    """``n_servers`` copies of ``template`` with derived per-server seeds.

    Seeds come from the injection-proof
    :func:`~repro.sim.rng.derive_seed`, so racks built from different
    scenario seeds (or different server counts) never share substreams.
    """
    if n_servers < 1:
        raise ValueError(f"n_servers must be >= 1, got {n_servers}")
    return tuple(
        replace(template, seed=derive_seed(seed, "fleet-server", str(index)))
        for index in range(n_servers)
    )
