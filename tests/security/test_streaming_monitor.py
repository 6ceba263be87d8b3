"""The streaming tenure monitor agrees with a batch rescan of the spans.

``CoreGapAuditor.audit_schedule`` answers from the tracer's
:class:`~repro.sim.tenure.TenureMonitor`, which checks each span as it
closes.  The oracle here is the auditor's former implementation: a
rescan of every stored span, with each domain's spans split into tenure
windows at its tenure cuts.  Two comparisons per traced run:

* **raw** -- every ``(core, owner, foreign)`` sharing the monitor found
  equals the set the rescan finds with no trust filter at all, so
  clean runs compare every host/monitor/guest overlap, not two empty
  lists;
* **judged** -- the ``(core, domain pair)`` violations of
  ``audit_schedule`` equal the rescan's under the auditor's rule.
"""

import bisect
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.costs import DEFAULT_COSTS
from repro.experiments.chaos import (
    default_fault_plans,
    plan_scenarios,
    run_chaos_case,
    run_hotplug_storm,
)
from repro.experiments.config import SystemConfig
from repro.experiments.system import System
from repro.experiments.workbench import vcpus_for
from repro.fleet.elastic import run_elastic_case
from repro.fleet.sweep import consolidation_scenario
from repro.guest.vm import GuestVm
from repro.guest.workloads import CoremarkStats, coremark_workload_factory
from repro.isa.worlds import MONITOR_DOMAIN
from repro.security import CoreGapAuditor, audit_conservation
from repro.sim.clock import ms
from repro.sim.engine import SimulationError
from repro.sim.tenure import SpanOrderError
from repro.sim.trace import Tracer
from repro.snap import Recipe, restore, snapshot


# -- the batch oracle ----------------------------------------------------


def _split_tenures(spans, cuts):
    """One domain's (start, end) spans on a core -> tenure windows.

    A span belongs to the tenure live when it started; each window is
    [min start, max end] over its spans."""
    cuts = sorted(cuts)
    groups = {}
    for start, end in spans:
        groups.setdefault(bisect.bisect_right(cuts, start), []).append(
            (start, end)
        )
    return [
        (min(s for s, _ in group), max(e for _, e in group))
        for _, group in sorted(groups.items())
    ]


def batch_sharing(tracer, judge=lambda owner, other: True):
    """Every (core, owner, foreign) with a foreign span strictly inside
    one of the owner's tenure windows, by rescanning all stored spans."""
    by_core = {}
    for span in tracer.spans:
        by_core.setdefault(span.core, []).append(span)
    cuts = {}
    for cut in tracer.tenure_cuts:
        cuts.setdefault((cut.core, cut.domain), []).append(cut.time)
    found = set()
    for core, spans in by_core.items():
        windows = {}
        for span in spans:
            windows.setdefault(span.domain, []).append((span.start, span.end))
        for owner, owned in windows.items():
            tenures = _split_tenures(owned, cuts.get((core, owner), ()))
            for span in spans:
                if span.domain == owner or not judge(owner, span.domain):
                    continue
                if any(
                    span.start < last and span.end > first
                    for first, last in tenures
                ):
                    found.add((core, owner, span.domain))
    return found


def auditor_rule(owner, other):
    auditor = CoreGapAuditor()
    domain = auditor._resolve(owner)
    guest = domain.is_realm or owner.startswith("vm:")
    return guest and domain.distrusts(auditor._resolve(other))


def pairs(triples):
    return {(core, *sorted((a, b))) for core, a, b in triples}


def assert_agrees(tracer):
    """Monitor == oracle, raw and judged; returns the judged pairs."""
    assert tracer.enabled, "the oracle needs stored spans"
    found = [(core, a, b) for core, a, b, _, _ in tracer.monitor.sharing]
    raw = set(found)
    assert len(found) == len(raw), "one entry per core and directed pair"
    assert raw == batch_sharing(tracer)
    streamed = pairs(
        (v.core, v.domain_a, v.domain_b)
        for v in CoreGapAuditor().audit_schedule(tracer)
    )
    assert streamed == pairs(batch_sharing(tracer, auditor_rule))
    return streamed


@pytest.fixture
def traced_systems(monkeypatch):
    """Force every System built in the test to store its spans; yields
    the list the built systems are appended to."""
    systems = []
    init = System.__init__

    def traced(self, config=None, costs=DEFAULT_COSTS):
        config = dataclasses.replace(
            config or SystemConfig(), trace_schedules=True
        )
        init(self, config, costs)
        systems.append(self)

    monkeypatch.setattr(System, "__init__", traced)
    return systems


def coremark_system(mode, n_cores=4, trace=True, **overrides):
    config = SystemConfig(
        mode=mode, n_cores=n_cores, seed=7, trace_schedules=trace, **overrides
    )
    system = System(config)
    vm = GuestVm(
        "cm",
        vcpus_for(config, n_cores),
        coremark_workload_factory(CoremarkStats()),
    )
    system.start(system.launch(vm))
    return system


# -- golden scenarios and matrices ---------------------------------------


class TestGoldenScenarios:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"mode": "gapped"},
            {"mode": "gapped", "delegation": False},
            {"mode": "shared"},
        ],
        ids=["gapped", "gapped-nodeleg", "shared"],
    )
    def test_probe_cells(self, overrides):
        mode = overrides.pop("mode")
        system = coremark_system(mode, **overrides)
        system.run_for(ms(20))
        system.finish()
        found = assert_agrees(system.tracer)
        assert bool(found) == (mode == "shared")

    def test_static_boot_scenario(self, traced_systems):
        spec = consolidation_scenario(
            level=2, mode="gapped", n_servers=2, duration_ns=ms(30), seed=7
        )
        spec.boot().run()
        assert len(traced_systems) == 2
        for system in traced_systems:
            assert assert_agrees(system.tracer) == set()
            assert system.tracer.monitor.sharing  # host/monitor overlaps

    def test_shared_schedules_report_violations(self):
        system = System(
            SystemConfig(
                mode="shared", n_cores=2, housekeeping=None,
                trace_schedules=True,
            )
        )
        for name in ("vm0", "vm1"):
            vm = GuestVm(name, 2, coremark_workload_factory(CoremarkStats()))
            system.start(system.launch(vm))
        system.run_for(ms(30))
        system.finish()
        found = assert_agrees(system.tracer)
        assert {pair[1:] for pair in found} >= {
            ("host", "vm:vm0"), ("host", "vm:vm1"), ("vm:vm0", "vm:vm1"),
        }


class TestMatrices:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_storm(self, traced_systems, seed):
        outcome = run_hotplug_storm(seed=seed, rounds=6)
        assert outcome.clean
        assert traced_systems
        for system in traced_systems:
            assert assert_agrees(system.tracer) == set()

    def test_chaos(self):
        for plan in default_fault_plans():
            for scenario in plan_scenarios(plan):
                outcome = run_chaos_case(scenario, plan)
                assert outcome.system.tracer.enabled
                assert assert_agrees(outcome.system.tracer) == set(), (
                    scenario, plan.name,
                )

    @pytest.mark.parametrize("seed", [77, 1009])
    def test_elastic_full(self, traced_systems, seed):
        summary = run_elastic_case("full", duration_ns=ms(120), seed=seed)
        assert summary["audit_problems"] == []
        assert any(
            system.tracer.tenure_cuts for system in traced_systems
        ), "the full case must cut tenures for the split to matter"
        for system in traced_systems:
            assert assert_agrees(system.tracer) == set()


# -- generated sequences ---------------------------------------------------

DOMAINS = ["host", "idle", MONITOR_DOMAIN.name, "realm:1", "realm:2", "vm:a"]

steps = st.lists(
    st.tuples(
        st.integers(0, 2),  # core
        st.sampled_from(["span", "span", "span", "insert", "cut"]),
        st.sampled_from(DOMAINS),
        st.integers(0, 3),  # gap before the step
        st.integers(0, 4),  # span length (0 is dropped)
    ),
    max_size=60,
)


def feed(tracer, sequence):
    """Per-core time-ordered spans and cuts, fed as a run would."""
    clock = {}
    for core, kind, domain, gap, length in sequence:
        t = clock.get(core, 0) + gap
        if kind == "cut":
            tracer.tenure_cut(t, core, domain)
            clock[core] = t
        elif kind == "insert":
            tracer.insert_span(core, domain, t, t + length)
            clock[core] = t + length
        else:
            tracer.begin_span(t, core, domain)
            tracer.end_span(t + length, core)
            clock[core] = t + length


class TestGenerated:
    @settings(max_examples=300, deadline=None)
    @given(steps)
    def test_monitor_matches_batch_oracle(self, sequence):
        tracer = Tracer(enabled=True)
        feed(tracer, sequence)
        assert_agrees(tracer)
        untraced = Tracer(enabled=False)
        feed(untraced, sequence)
        assert untraced.spans == [] and untraced.tenure_cuts == []
        assert untraced.monitor.sharing == tracer.monitor.sharing
        assert CoreGapAuditor().audit_schedule(
            untraced
        ) == CoreGapAuditor().audit_schedule(tracer)
        for core in range(3):
            assert untraced.busy_time(core=core) == sum(
                s.duration for s in tracer.spans if s.core == core
            )

    def test_out_of_order_span_raises(self):
        tracer = Tracer(enabled=False)
        tracer.insert_span(0, "host", 10, 20)
        with pytest.raises(SpanOrderError, match="core 0"):
            tracer.insert_span(0, "realm:1", 15, 30)
        tracer.insert_span(1, "host", 0, 5)  # other cores are independent

    def test_span_before_its_tenure_cut_raises(self):
        tracer = Tracer(enabled=False)
        tracer.insert_span(0, "realm:1", 0, 10)
        tracer.tenure_cut(20, 0, "realm:1")
        with pytest.raises(SpanOrderError, match="tenure cut"):
            tracer.insert_span(0, "realm:1", 15, 30)
        tracer.insert_span(1, "realm:1", 0, 9)
        with pytest.raises(SpanOrderError, match="tenure cut"):
            tracer.tenure_cut(5, 1, "realm:1")


# -- injected foreign spans --------------------------------------------------


def relabel_one_monitor_span(system, core, after_ns):
    """Attribute the first monitor span on ``core`` that begins at or
    after ``after_ns`` to the host: one foreign span inside the realm's
    tenure.  Returns the list the relabelled span is appended to."""
    tracer = system.tracer
    begin = tracer.begin_span
    end = tracer.end_span
    hit = []

    def begin_span(time, index, domain):
        if (
            not hit
            and index == core
            and domain == MONITOR_DOMAIN.name
            and time >= after_ns
        ):
            domain = "host"
            hit.append([time, None])
        begin(time, index, domain)

    def end_span(time, index):
        if hit and hit[0][1] is None and index == core:
            hit[0][1] = time
        end(time, index)

    tracer.begin_span = begin_span
    tracer.end_span = end_span
    return hit


def gapped_with_injection(trace):
    system = coremark_system("gapped", trace=trace)
    system.run_for(ms(1))
    core = system.rmm.find_rec(system.kvms[0].realm_id, 0).bound_core
    hit = relabel_one_monitor_span(system, core, ms(2))
    return system, core, hit


class TestInjectedForeignSpan:
    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
    def test_one_foreign_span_in_a_gapped_tenure_is_one_violation(
        self, trace
    ):
        system, core, hit = gapped_with_injection(trace)
        system.run_for(ms(4))
        system.finish()
        assert hit and hit[0][1] > hit[0][0]
        violations = CoreGapAuditor().audit_schedule(system.tracer)
        assert len(violations) == 1
        assert violations[0].core == core
        assert {violations[0].domain_a, violations[0].domain_b} == {
            "host", system.kvms[0].vm.domain.name,
        }
        if trace:
            assert_agrees(system.tracer)

    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
    def test_foreign_span_after_the_tenure_then_cut_is_clean(self, trace):
        tracer = Tracer(enabled=trace)
        tracer.insert_span(0, "realm:1", 0, 100)
        tracer.insert_span(0, "host", 100, 200)
        tracer.tenure_cut(200, 0, "realm:1")
        tracer.insert_span(0, "realm:1", 200, 300)
        assert CoreGapAuditor().audit_schedule(tracer) == []
        # without the cut the same host span is inside one tenure
        uncut = Tracer(enabled=trace)
        for start, domain in ((0, "realm:1"), (100, "host"), (200, "realm:1")):
            uncut.insert_span(0, domain, start, start + 100)
        assert len(CoreGapAuditor().audit_schedule(uncut)) == 1
        if trace:
            assert_agrees(tracer)
            assert_agrees(uncut)


# -- conservation and restore without stored spans ---------------------------


class TestUntracedAudits:
    def test_conservation_sees_untraced_spans(self):
        tracer = Tracer(enabled=False)
        tracer.insert_span(0, "host", 0, 50)
        tracer.begin_span(80, 1, "realm:1")
        tracer.end_span(60, 1)  # runs backwards
        tracer.insert_span(2, "host", 90, 140)  # escapes a 0..100 window
        problems = audit_conservation(tracer, end_ns=100)
        assert tracer.spans == []
        assert len(problems) == 2
        assert "core 1: span for realm:1 runs backwards (80..60)" in problems
        assert any(
            p.startswith("core 2: spans escape the window") for p in problems
        )

    def test_conservation_counts_untraced_busy_time(self):
        tracer = Tracer(enabled=False)
        tracer.insert_span(0, "host", 0, 60)
        tracer.insert_span(0, "realm:1", 60, 100)
        assert audit_conservation(tracer, end_ns=100) == []
        assert audit_conservation(tracer, end_ns=100, start_ns=50) == [
            "core 0: spans escape the window (0..100 vs 50..100)",
            "core 0: 100 ns of execution in a 50 ns window",
        ]

    def test_untraced_span_queries_name_trace_schedules(self):
        tracer = Tracer(enabled=False)
        tracer.insert_span(0, "host", 0, 60)
        assert tracer.busy_time(core=0, domain="host") == 60
        with pytest.raises(SimulationError, match="trace_schedules=True"):
            tracer.spans_on_core(0)
        with pytest.raises(SimulationError, match="trace_schedules=True"):
            tracer.domains_on_core(0)

    def test_restore_mid_tenure_with_pending_foreign_span(self):
        """Cut an untraced gapped run right after the injected foreign
        span closed -- the realm has not run again, so the monitor
        holds it pending -- restore, and finish both runs."""
        straight, core, hit = gapped_with_injection(trace=False)
        straight.run_for(ms(4))
        straight.finish()
        cut_at = hit[0][1]

        def build():
            system, _, _ = gapped_with_injection(trace=False)
            return system

        live = build()
        live.sim.run(until=cut_at)
        tenure = live.tracer.monitor._cores[core].tenures[
            live.kvms[0].vm.domain.name
        ]
        assert tenure[2] == {"host": hit[0][0]}, "the host span is pending"
        restored = restore(snapshot(live, recipe=Recipe(build=build)))
        for system in (live, restored):
            system.run_for(straight.sim.now - system.sim.now)
            system.finish()
            assert system.sim.now == straight.sim.now
        expected = CoreGapAuditor().audit_schedule(straight.tracer)
        assert len(expected) == 1
        assert CoreGapAuditor().audit_schedule(restored.tracer) == expected
        assert CoreGapAuditor().audit_schedule(live.tracer) == expected
