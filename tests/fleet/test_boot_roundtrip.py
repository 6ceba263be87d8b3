"""The declarative API is the imperative incantation, bit for bit.

``ScenarioSpec.boot()`` exists to *replace* the hand-written
``System(SystemConfig(...))`` + ``launch`` + ``add_*`` + ``start`` +
``run_for`` sequence, so a one-server fig6-sized scenario must produce
the exact same trace digest as the imperative spelling — same records,
same spans, same counters.  Reuses the sanitizer's digest/diff helpers
as a test library, like the fig6 determinism test does.
"""

from repro.costs import DEFAULT_COSTS
from repro.experiments.config import SystemConfig
from repro.experiments.system import System
from repro.fleet import ScenarioSpec, TenantSpec, VmSpec
from repro.guest.vm import GuestVm
from repro.guest.workloads import CoremarkStats, coremark_workload_factory
from repro.lint.sanitizer import RunDigest, diff_digests
from repro.sim.clock import ms

CONFIG = SystemConfig(mode="gapped", n_cores=6, seed=11, trace_schedules=True)
N_VCPUS = 4
DURATION_NS = ms(20)


def digest_of(system: System) -> RunDigest:
    tracer = system.tracer
    records = [
        f"{r.time}|{r.kind}|{r.core}|{r.domain}|{r.detail}"
        for r in tracer.records
    ]
    spans = [
        f"{s.core}|{s.domain}|{s.start}|{s.end}" for s in tracer.spans
    ]
    counters = {k: int(v) for k, v in sorted(tracer.counters.items())}
    return RunDigest(records, spans, counters, {"end_ns": system.sim.now})


def imperative_run() -> RunDigest:
    stats = CoremarkStats()
    system = System(CONFIG, DEFAULT_COSTS)
    vm = GuestVm(
        "bench", N_VCPUS, coremark_workload_factory(stats), costs=DEFAULT_COSTS
    )
    kvm = system.launch(vm)
    system.start(kvm)
    system.run_for(DURATION_NS)
    system.finish()
    return digest_of(system)


def declarative_run() -> RunDigest:
    stats = CoremarkStats()
    spec = ScenarioSpec(
        servers=(CONFIG,),
        tenants=(
            TenantSpec(
                vm=VmSpec("bench", N_VCPUS, coremark_workload_factory(stats))
            ),
        ),
        duration_ns=DURATION_NS,
    )
    fleet = spec.boot(costs=DEFAULT_COSTS)
    fleet.run()
    return digest_of(fleet.servers[0].system)


class TestBootRoundTrip:
    def test_declarative_equals_imperative_bit_for_bit(self):
        assert diff_digests(imperative_run(), declarative_run()) == []

    def test_declarative_replays_bit_identical(self):
        assert diff_digests(declarative_run(), declarative_run()) == []
