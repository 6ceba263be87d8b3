"""Elastic fleet lifecycle: verbs, churn, conservation, determinism."""

import warnings

import pytest

from repro.experiments.config import SystemConfig
from repro.fleet.elastic import (
    AutoscalePolicy,
    ChurnSpec,
    FleetController,
    RebalancePolicy,
    churn_schedule,
    default_churn_tenant,
    elastic_cells,
    run_elastic,
    run_elastic_case,
)
from repro.fleet.spec import (
    ScenarioSpec,
    redis_tenant,
    resolve_admission,
    uniform_rack,
)
from repro.guest.vcpu import VTIMER_VIRQ
from repro.sim.clock import ms
from repro.sim.engine import SimulationError


def rack(
    tenants,
    n_servers=2,
    n_cores=8,
    seed=3,
    placement="spread",
    duration_ns=ms(15),
):
    return ScenarioSpec(
        servers=uniform_rack(
            n_servers, SystemConfig(mode="gapped", n_cores=n_cores), seed=seed
        ),
        tenants=tuple(tenants),
        duration_ns=duration_ns,
        seed=seed,
        placement=placement,
    )


class TestStaticBoot:
    def test_boot_populates_timeline_and_counts(self):
        spec = rack([redis_tenant("a", 2, 2000.0), redis_tenant("b", 2, 2000.0)])
        controller = FleetController(spec)
        admits = [e for e in controller.timeline if e.verb == "admit"]
        assert [e.tenant for e in admits] == ["a", "b"]
        assert all(e.detail == "boot" for e in admits)
        assert controller.counts["admit"] == 2
        assert controller.fleet.controller is controller

    def test_scenario_boot_carries_its_controller(self):
        spec = rack([redis_tenant("a", 2, 2000.0)])
        fleet = spec.boot()
        assert isinstance(fleet.controller, FleetController)

    def test_strict_construction_refuses_oversized(self):
        from repro.fleet.placement import FleetAdmissionError

        spec = rack([redis_tenant("big", 12, 2000.0)], n_servers=1)
        with pytest.raises(FleetAdmissionError, match="big"):
            FleetController(spec)


class TestLifecycleVerbs:
    def test_admit_mid_run_serves_and_conserves(self):
        spec = rack([redis_tenant("a", 2, 2000.0)])
        controller = FleetController(spec)
        controller.start_serving(spec.duration_ns)
        controller.advance_to(ms(5))
        index = controller.admit(redis_tenant("late", 2, 2000.0), ms(8))
        assert index is not None
        assert controller.where["late"] == index
        controller.advance_to(spec.duration_ns)
        controller.finish()
        outcome = controller.outcome()
        assert outcome.conservation_ok
        assert outcome.audit_problems == []
        late = next(r for r in outcome.rows if r.tenant == "late")
        assert late.issued > 0
        assert late.admitted_ns == ms(5)

    def test_admit_rejects_when_rack_is_full(self):
        spec = rack([redis_tenant("a", 6, 2000.0)], n_servers=1)
        controller = FleetController(spec)
        controller.start_serving(spec.duration_ns)
        assert controller.admit(redis_tenant("b", 3, 2000.0), ms(5)) is None
        assert controller.counts["reject"] == 1
        rejects = [e for e in controller.timeline if e.verb == "reject"]
        assert rejects and rejects[0].server == -1

    def test_evict_frees_capacity_and_records_departure(self):
        spec = rack([redis_tenant("a", 2, 2000.0), redis_tenant("b", 2, 2000.0)])
        controller = FleetController(spec)
        controller.start_serving(spec.duration_ns)
        controller.advance_to(ms(5))
        free_before = list(controller.free)
        server = controller.where["b"]
        controller.evict("b", drain_ns=ms(2), reason="test")
        assert "b" not in controller.where
        assert controller.free[server] == free_before[server] + 2
        controller.advance_to(spec.duration_ns)
        controller.finish()
        outcome = controller.outcome()
        assert outcome.conservation_ok
        assert outcome.audit_problems == []
        row = next(r for r in outcome.rows if r.tenant == "b")
        assert row.departed_ns == ms(5)

    def test_resize_shrinks_then_grows_through_hotplug(self):
        spec = rack([redis_tenant("a", 3, 2000.0)], n_servers=1)
        controller = FleetController(spec)
        controller.start_serving(spec.duration_ns)
        controller.advance_to(ms(3))
        assert controller.resize("a", 1) == 1
        assert controller.counts["resize_down"] == 2
        assert controller.active_vcpus["a"] == 1
        controller.advance_to(ms(6))
        assert controller.resize("a", 3) == 3
        assert controller.counts["resize_up"] == 2
        controller.advance_to(spec.duration_ns)
        controller.finish()
        outcome = controller.outcome()
        assert outcome.audit_problems == []
        assert outcome.conservation_ok
        row = next(r for r in outcome.rows if r.tenant == "a")
        assert row.resizes == 4

    def test_resize_never_parks_serving_vcpu0(self):
        spec = rack([redis_tenant("a", 2, 2000.0)], n_servers=1)
        controller = FleetController(spec)
        controller.start_serving(spec.duration_ns)
        controller.advance_to(ms(3))
        # target below 1 clamps: vCPU 0 keeps serving
        assert controller.resize("a", 0) == 1
        assert controller.active_vcpus["a"] == 1

    def test_grow_refused_when_cores_taken_meanwhile(self):
        # shrink frees a core, a newcomer takes every free core, growing
        # back is refused cleanly (typed refusal, not a sim abort)
        spec = rack([redis_tenant("a", 2, 2000.0)], n_servers=1, n_cores=4)
        controller = FleetController(spec)
        controller.start_serving(spec.duration_ns)
        controller.advance_to(ms(3))
        controller.resize("a", 1)
        free = controller.free[0]
        newcomer = redis_tenant("b", free, 1000.0)
        assert controller.admit(newcomer, ms(8)) is not None
        assert controller.resize("a", 2) == 1
        assert controller.counts["resize_refused"] == 1
        refusals = [
            e
            for e in controller.timeline
            if e.verb == "resize" and "refused" in e.detail
        ]
        assert len(refusals) == 1

    def test_migrate_moves_tenant_and_charges_blackout(self):
        spec = rack(
            [redis_tenant("big", 4, 4000.0), redis_tenant("small", 2, 2000.0)],
            n_cores=16,
            placement="pack",
        )
        controller = FleetController(spec)
        controller.start_serving(spec.duration_ns)
        controller.advance_to(ms(5))
        policy = RebalancePolicy(downtime_ns=ms(2), drain_ns=ms(2))
        assert controller.migrate("small", 1, ms(8), policy)
        assert controller.where["small"] == 1
        controller.advance_to(spec.duration_ns)
        controller.finish()
        outcome = controller.outcome()
        assert outcome.conservation_ok
        assert outcome.audit_problems == []
        row = next(r for r in outcome.rows if r.tenant == "small")
        assert row.migrations == 1
        assert row.servers == (0, 1)
        assert row.migration_slo_charge > 0
        migrates = [e for e in controller.timeline if e.verb == "migrate"]
        assert len(migrates) == 1 and "image" in migrates[0].detail

    def test_verbs_require_core_gapped_servers(self):
        spec = ScenarioSpec(
            servers=uniform_rack(
                1, SystemConfig(mode="shared", n_cores=8), seed=3
            ),
            tenants=(redis_tenant("a", 2, 2000.0),),
            duration_ns=ms(10),
            seed=3,
        )
        controller = FleetController(spec)
        controller.start_serving(spec.duration_ns)
        with pytest.raises(SimulationError, match="core-gapped"):
            controller.resize("a", 1)
        with pytest.raises(SimulationError, match="core-gapped"):
            controller.evict("a", drain_ns=0)


class TestChurnSchedule:
    CHURN = ChurnSpec(
        arrival_rate_per_s=200.0,
        mean_lifetime_ns=ms(20),
        tenant_factory=default_churn_tenant,
    )

    def test_same_seed_same_schedule(self):
        a = churn_schedule(self.CHURN, seed=5, horizon_ns=ms(100))
        b = churn_schedule(self.CHURN, seed=5, horizon_ns=ms(100))
        assert a == b

    def test_different_seeds_diverge(self):
        a = churn_schedule(self.CHURN, seed=5, horizon_ns=ms(100))
        b = churn_schedule(self.CHURN, seed=6, horizon_ns=ms(100))
        assert a != b

    def test_lifetimes_floored_and_arrivals_inside_horizon(self):
        schedule = churn_schedule(self.CHURN, seed=1, horizon_ns=ms(200))
        assert schedule, "expected arrivals in a 200 ms horizon at 200/s"
        assert all(a.t_ns < ms(200) for a in schedule)
        assert all(a.lifetime_ns >= self.CHURN.min_lifetime_ns for a in schedule)
        assert [a.index for a in schedule] == list(range(len(schedule)))


class TestRunElastic:
    def test_churn_run_conserves_and_audits_clean(self):
        spec = rack([redis_tenant("static-a", 2, 2000.0)], duration_ns=ms(30))
        churn = ChurnSpec(
            arrival_rate_per_s=150.0,
            mean_lifetime_ns=ms(15),
            tenant_factory=default_churn_tenant,
            max_concurrent=2,
        )
        outcome = run_elastic(spec, churn=churn, epoch_ns=ms(10))
        assert outcome.conservation_ok
        assert outcome.audit_problems == []
        assert outcome.counts["admit"] > 1  # churned admissions happened
        verbs = {e.verb for e in outcome.timeline}
        assert "admit" in verbs

    def test_autoscaler_sheds_idle_vcpus(self):
        # 1000 rps against 4000 rps/vCPU provisioning: the autoscaler
        # shrinks toward one active vCPU through the hotplug path
        spec = rack(
            [redis_tenant("a", 3, 1000.0)], n_servers=1, duration_ns=ms(40)
        )
        outcome = run_elastic(
            spec,
            autoscale=AutoscalePolicy(rps_per_vcpu=4000.0),
            epoch_ns=ms(10),
        )
        assert outcome.counts["resize_down"] >= 1
        assert outcome.audit_problems == []
        assert outcome.conservation_ok


class TestEvictInterruptRace:
    """An interrupt for an evicted tenant can still be in flight when
    its realm is destroyed; the torn-down VM must drop it, not crash."""

    def test_evicted_vm_drops_late_injections(self):
        spec = rack([redis_tenant("a", 2, 2000.0), redis_tenant("b", 2, 2000.0)])
        controller = FleetController(spec)
        controller.start_serving(spec.duration_ns)
        controller.advance_to(ms(5))
        kvm = controller.booted["b"].kvm
        controller.evict("b", drain_ns=ms(2), reason="test")
        assert kvm.torn_down
        kvm.inject_virq(0, VTIMER_VIRQ)  # realm is gone: no RealmError
        assert kvm._injections[0] == []

    @pytest.mark.parametrize("seed", [77, 1009])
    def test_full_case_completes(self, seed):
        # both seeds used to raise RealmError mid-evict: an SR-IOV
        # interrupt was injected after planner.evict_cvm destroyed
        # the tenant's realm
        result = run_elastic_case("full", duration_ns=ms(120), seed=seed)
        assert result["conservation_ok"]
        assert result["audit_problems"] == []
        assert result["counts"]["evict"] > 0


class TestAdmissionEnum:
    def test_default_is_strict(self):
        assert resolve_admission(None) == "strict"

    def test_enum_values_pass_through(self):
        assert resolve_admission("strict") == "strict"
        assert resolve_admission("best_effort") == "best_effort"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown admission mode"):
            resolve_admission("lenient")

    def test_deprecated_strict_keyword_warns_and_maps(self):
        with pytest.warns(DeprecationWarning, match="admission="):
            assert resolve_admission(None, strict=True) == "strict"
        with pytest.warns(DeprecationWarning):
            assert resolve_admission(None, strict=False) == "best_effort"

    def test_both_spellings_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            resolve_admission("strict", strict=True)

    def test_boot_accepts_admission_keyword(self):
        spec = rack([redis_tenant("ok", 2, 2000.0), redis_tenant("big", 12, 1.0)])
        fleet = spec.boot(admission="best_effort")
        names = [vm.spec.name for server in fleet.servers for vm in server.vms]
        assert names == ["ok"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the enum path must not warn
            with pytest.raises(Exception):
                spec.boot(admission="strict")


class TestSweepDeterminism:
    def test_elastic_cells_digest_stable_across_jobs(self):
        from repro.experiments.runner import verify_serial_parallel

        cells = elastic_cells(
            variants=("churn", "rebalance"), duration_ns=ms(30)
        )
        assert verify_serial_parallel(cells, jobs=2) == []
