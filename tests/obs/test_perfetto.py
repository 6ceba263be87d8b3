"""Perfetto exporter: golden output, validation, end-to-end structure."""

import json
from pathlib import Path

import pytest

from repro.experiments.config import SystemConfig
from repro.experiments.workbench import build_system
from repro.guest.vm import GuestVm
from repro.guest.workloads import CoremarkStats, coremark_workload_factory
from repro.obs.perfetto import (
    PID_CORES,
    export_trace,
    trace_summary,
    validate_trace,
    write_trace,
)
from repro.sim.clock import ms
from repro.sim.trace import Tracer

GOLDEN = Path(__file__).parent / "golden" / "tiny_schedule.trace.json"


def tiny_tracer() -> Tracer:
    """A hand-built deterministic schedule exercising every track type."""
    tracer = Tracer(enabled=True)
    tracer.begin_span(0, 0, "host")
    tracer.begin_span(100, 1, "realm:cvm0")
    tracer.event(
        150,
        "sgi.send",
        core=1,
        detail={"target": 0, "intid": 8, "flow": 0},
    )
    tracer.event(550, "sgi.recv", core=0, detail={"intid": 8, "flow": 0})
    tracer.event(600, "rpc.submit", detail={"port": "cvm0.vcpu0", "seq": 1})
    tracer.event(900, "exit", core=1, domain="realm:cvm0", detail="timer")
    tracer.event(950, "rpc.complete", detail={"port": "cvm0.vcpu0", "seq": 1})
    tracer.event(990, "rpc.collect", detail={"port": "cvm0.vcpu0", "seq": 1})
    tracer.event(1000, "fault.inject", detail="sgi_drop")
    tracer.event(1100, "spi.raise", core=0, detail={"intid": 33})
    tracer.end_span(1200, 1)
    tracer.end_span(1500, 0)
    tracer.count("exits_total")
    tracer.set_gauge("sim_end_ns", 1500)
    return tracer


class TestGolden:
    def test_export_matches_golden_file(self):
        trace = export_trace(tiny_tracer(), label="tiny")
        expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert trace == expected

    def test_golden_file_validates(self):
        trace = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert validate_trace(trace) == []


class TestExportStructure:
    def test_flow_arrow_crosses_tracks(self):
        summary = trace_summary(export_trace(tiny_tracer()))
        assert summary["core_tracks"] == 2
        assert summary["flow_pairs"] == 1
        assert summary["cross_core_flows"] == 1

    def test_counters_and_gauges_ride_in_other_data(self):
        trace = export_trace(tiny_tracer(), label="tiny")
        assert trace["otherData"]["counters"] == {"exits_total": 1}
        assert trace["otherData"]["gauges"] == {"sim_end_ns": 1500}
        assert trace["otherData"]["label"] == "tiny"

    def test_write_trace_round_trips(self, tmp_path):
        path = tmp_path / "t.trace.json"
        written = write_trace(tiny_tracer(), str(path), label="tiny")
        assert json.loads(path.read_text(encoding="utf-8")) == written

    def test_validator_flags_malformed_events(self):
        bad = {
            "traceEvents": [
                {"ph": "Z", "pid": 0, "ts": 0},
                {"ph": "X", "pid": 0, "ts": 1, "name": "a"},
                {"ph": "f", "pid": 0, "ts": 2, "id": 9, "name": "sgi"},
            ]
        }
        errors = validate_trace(bad)
        assert any("unknown phase" in e for e in errors)
        assert any("dur" in e for e in errors)
        assert any("no matching start" in e for e in errors)


class TestEndToEnd:
    def test_gapped_run_exports_per_core_tracks_and_flows(self):
        config = SystemConfig(
            mode="gapped", n_cores=6, seed=1, trace_schedules=True
        )
        system = build_system(config)
        stats = CoremarkStats()
        vm = GuestVm("cvm0", 2, coremark_workload_factory(stats))
        kvm = system.launch(vm)
        system.start(kvm)
        system.run_for(ms(10))
        system.finish()

        trace = export_trace(system.tracer, label="e2e")
        assert validate_trace(trace) == []
        summary = trace_summary(trace)
        # one X-slice track per physical core that ever ran anything
        assert summary["core_tracks"] == 6
        # the exit-doorbell / vIPI SGIs become visible cross-track arrows
        assert summary["cross_core_flows"] >= 1
        # dedicated-core slices exist for the realm's domain
        realm_slices = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "X"
            and e.get("pid") == PID_CORES
            and str(e.get("name")).startswith("realm:")
        ]
        assert realm_slices

    def test_disabled_tracer_export_names_trace_schedules(self):
        tracer = Tracer(enabled=False)
        tracer.event(10, "sgi.send", detail={"flow": 1})
        with pytest.raises(ValueError, match="trace_schedules=True"):
            export_trace(tracer)
