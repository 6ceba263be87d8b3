"""Perf smoke: engine events/sec, per-lever breakdown, parallel suite.

Measurements are written to ``BENCH_perf.json`` (schema 2) at the repo
root so the bench trajectory survives across PRs:

* **engine micro** (schema-1 keys, unchanged): scheduled events per
  second on a synthetic Delay/AnyOf-heavy workload, on the live engine
  *and* on the frozen pre-optimization snapshot
  (``benchmarks/_legacy_engine.py``).
* **levers** (schema 2): the same claim decomposed per optimisation —
  ``run()``'s inline pop loop vs one ``run_one`` call per event
  (``batch_dispatch``), event-race arming (``[Delay, Event]``
  races vs the frozen engine, with the collector's pass and freed-object
  counts of each), quiescent-window scan coalescing on the exit-storm
  cell (wake-up slot polls as one wait vs one per poll, with
  ``PhysicalCore.execute`` call counts).
* **audit** (schema 2): ``run_elastic_case("full")`` seed 0 at 60, 120
  and 240 ms simulated, each in a fresh interpreter -- wall time, the
  wall time spent in ``CoreGapAuditor.audit_schedule`` (called after
  every lifecycle verb) and the process's peak RSS -- so the ledger
  shows the audit's cost growing with the horizon; and the time to
  build one ``SetAssociativeCache`` of the LLC's geometry.
* **fig-6 cell macro** and **suite parallel** (schema-1 keys): one
  gapped CoreMark cell, and a subsweep at ``jobs=1`` vs ``jobs=4``;
  schema 2 adds the ``--jobs auto`` resolution for this host.

Methodology: every timed sample starts from a collected heap
(``gc.collect`` before each run, GC left *on*) so each engine pays its
own garbage, not its predecessor's — the legacy engine's cancelled
AnyOf losers create cyclic garbage whose collection otherwise lands in
whichever measurement runs next.  Wall-clock assertions are gated on
``os.cpu_count()`` where parallelism is the thing measured.
"""

import gc
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import _legacy_engine  # noqa: E402  (the frozen pre-optimization engine)

import repro.sim.engine as live_engine  # noqa: E402
from repro.costs import DEFAULT_COSTS  # noqa: E402
from repro.experiments.fig6 import _coremark_cell, fig6_cells  # noqa: E402
from repro.experiments.config import SystemConfig  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    canonical_digest,
    resolve_jobs,
    run_cells,
)
from repro.experiments.workbench import run_coremark  # noqa: E402
from repro.hw.core import PhysicalCore  # noqa: E402
from repro.sim.clock import ms  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

BENCH_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_perf.json"

#: filled by the tests, flushed to BENCH_perf.json by the module fixture
RESULTS = {"schema": 2}


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    RESULTS["cpu_count"] = os.cpu_count()
    RESULTS["python"] = sys.version.split()[0]
    yield
    BENCH_PATH.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n")


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        gc.collect()  # each sample pays its own garbage, not the last run's
        t0 = time.perf_counter()  # lint: allow(DET001) - measuring wall time
        fn()
        elapsed = time.perf_counter() - t0  # lint: allow(DET001)
        best = min(best, elapsed)
    return best


# ---------------------------------------------------------------------------
# engine micro workloads


def _engine_workload(mod, n_procs=40, n_iter=300):
    """Plain delays alternating with all-delay ``AnyOf`` races; returns
    the count of scheduled timers.  The live engine elides every one of
    these races to a single timer, so this measures raw dispatch, not
    event-race arming (see :func:`_race_workload` for that)."""
    sim = mod.Simulator()

    def worker(i):
        for k in range(n_iter):
            yield mod.Delay(10 + (i + k) % 7)
            wakeup = yield mod.AnyOf([mod.Delay(3), mod.Delay(10**6)])
            assert wakeup.index == 0

    for i in range(n_procs):
        sim.spawn(worker(i), name=f"w{i}")
    sim.run()
    return sim._seq


def _race_workload(mod, n_procs=40, n_iter=300):
    """The race ``PhysicalCore.execute`` arms per interruptible segment:
    ``AnyOf([Delay(work), doorbell])``.  On every third race a callback
    rings the doorbell before the work ends (the event wins, the delay
    is cancelled); the others run to completion (the delay wins, the
    waiter is removed).  Returns the count of scheduled timers."""
    sim = mod.Simulator()

    def worker(i):
        for k in range(n_iter):
            doorbell = mod.Event("doorbell")
            rings = (i + k) % 3 == 0
            if rings:
                sim.schedule(2, lambda doorbell=doorbell, k=k: doorbell.fire(k))
            wakeup = yield mod.AnyOf([mod.Delay(5 + (i + k) % 7), doorbell])
            assert wakeup.index == (1 if rings else 0)

    for i in range(n_procs):
        sim.spawn(worker(i), name=f"r{i}")
    sim.run()
    return sim._seq


def _gc_counts(fn):
    """Collector passes per generation, and objects the collector
    freed, during one ``fn()`` run from a collected heap."""
    gc.collect()
    before = gc.get_stats()
    fn()
    after = gc.get_stats()
    return (
        [a["collections"] - b["collections"] for a, b in zip(after, before)],
        sum(a["collected"] - b["collected"] for a, b in zip(after, before)),
    )


def _run_unbatched(sim):
    """Drain a simulator one :meth:`Simulator.run_one` call per event —
    the dispatch path minus the inline pop loop of :meth:`Simulator.run`."""
    while sim._live:
        sim.run_one()
    return sim.now


# ---------------------------------------------------------------------------
# engine: headline + per-lever breakdown


def test_engine_events_per_sec_vs_legacy():
    n_events = _engine_workload(live_engine)  # warm both modules up
    assert n_events == _engine_workload(_legacy_engine)

    legacy_s = _best_of(lambda: _engine_workload(_legacy_engine), repeats=5)
    live_s = _best_of(lambda: _engine_workload(live_engine), repeats=5)
    speedup = legacy_s / live_s
    RESULTS["engine"] = {
        "scheduled_events": n_events,
        "events_per_sec_live": round(n_events / live_s),
        "events_per_sec_legacy": round(n_events / legacy_s),
        "single_process_speedup": round(speedup, 3),
    }
    # generous floor against loaded CI hosts; the measured margin is
    # far above it (see BENCH_perf.json)
    assert speedup >= 1.10, f"engine regressed vs pre-PR baseline: {speedup:.3f}x"


def test_lever_batched_vs_unbatched_dispatch():
    # "batched" is run()'s inline pop loop, "unbatched" one run_one()
    # call per event; the key names stay so the ledger stays comparable
    def build():
        sim = live_engine.Simulator()

        def worker(i):
            for k in range(400):
                yield live_engine.Delay(5 + (i + k) % 11)

        for i in range(30):
            sim.spawn(worker(i), name=f"w{i}")
        return sim

    n_events = build()._seq  # spawns only; run() adds the rest
    batched_s = _best_of(lambda: build().run(), repeats=5)
    unbatched_s = _best_of(lambda: _run_unbatched(build()), repeats=5)
    total = build()
    total.run()
    RESULTS.setdefault("levers", {})["batch_dispatch"] = {
        "scheduled_events": total._seq,
        "events_per_sec_batched": round(total._seq / batched_s),
        "events_per_sec_unbatched": round(total._seq / unbatched_s),
        "batched_vs_unbatched_speedup": round(unbatched_s / batched_s, 3),
    }
    assert n_events <= total._seq
    # noise floor (measured margin is well above parity)
    assert unbatched_s / batched_s >= 0.85


# ---------------------------------------------------------------------------
# macro + suite


def test_lever_race_arming_vs_legacy():
    n_events = _race_workload(live_engine)
    assert n_events == _race_workload(_legacy_engine)

    legacy_s = _best_of(lambda: _race_workload(_legacy_engine), repeats=5)
    live_s = _best_of(lambda: _race_workload(live_engine), repeats=5)
    legacy_passes, legacy_freed = _gc_counts(lambda: _race_workload(_legacy_engine))
    live_passes, live_freed = _gc_counts(lambda: _race_workload(live_engine))
    RESULTS.setdefault("levers", {})["race_arming"] = {
        "workload": "[Delay, Event] races, one in three won by the event",
        "scheduled_events": n_events,
        "events_per_sec_live": round(n_events / live_s),
        "events_per_sec_legacy": round(n_events / legacy_s),
        "live_vs_legacy_speedup": round(legacy_s / live_s, 3),
        "gc_collections_live": live_passes,
        "gc_collections_legacy": legacy_passes,
        "gc_collected_live": live_freed,
        "gc_collected_legacy": legacy_freed,
    }
    # a settled race is freed by reference counting: the collector runs
    # (allocation counts trigger it) but finds nothing to free
    assert live_freed == 0, f"live race arming left {live_freed} cyclic objects"
    # noise floor only; the measured margin is far above it
    assert legacy_s / live_s >= 1.10


def _exit_storm(duration_ns=int(ms(100))):
    """The ``exit-storm`` benchmark cell (gapped CoreMark on 16 cores
    without timer delegation: every tick exits to the host core)."""
    return run_coremark(
        SystemConfig(delegation=False, seed=0), duration_ns=duration_ns
    )


def test_lever_quiet_scan_window(monkeypatch):
    """Quiescent-window scan coalescing on the exit-storm cell: the
    wake-up thread's slot polls retired as one wait vs one ``execute``
    per poll (the window forced shut by pinning
    ``Simulator.quiet_until`` to ``now``)."""

    def closed(sim):
        return sim.now

    def execute_calls():
        calls = [0]
        execute = PhysicalCore.execute

        def counted(self, *args, **kwargs):
            calls[0] += 1
            return execute(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(PhysicalCore, "execute", counted)
            digest = canonical_digest(_exit_storm())
        return digest, calls[0]

    open_digest, open_calls = execute_calls()
    open_s = _best_of(_exit_storm)
    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "quiet_until", closed)
        closed_digest, closed_calls = execute_calls()
        closed_s = _best_of(_exit_storm)
    assert open_digest == closed_digest
    RESULTS.setdefault("levers", {})["quiet_scan"] = {
        "workload": "exit-storm cell, 100 ms simulated, window on vs off",
        "execute_calls_window": open_calls,
        "execute_calls_per_slot": closed_calls,
        "seconds_window": round(open_s, 4),
        "seconds_per_slot": round(closed_s, 4),
        "window_vs_per_slot_speedup": round(closed_s / open_s, 3),
    }
    assert open_calls < closed_calls
    # noise floor only; the measured margin is well above it
    assert closed_s / open_s >= 1.05


#: one elastic ``full`` case in a fresh interpreter: argv[1] is the
#: horizon in ms; prints wall, audit wall, audit calls and peak RSS
_ELASTIC_AUDIT_PROBE = """
import json, resource, sys, time
from repro.fleet.elastic import run_elastic_case
from repro.security.audit import CoreGapAuditor

audit = CoreGapAuditor.audit_schedule
spent = [0.0, 0]

def timed(auditor, tracer):
    start = time.perf_counter()
    try:
        return audit(auditor, tracer)
    finally:
        spent[0] += time.perf_counter() - start
        spent[1] += 1

def peak_rss_mb():
    # VmHWM restarts at exec; ru_maxrss keeps the forking parent's peak
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

CoreGapAuditor.audit_schedule = timed
start = time.perf_counter()
summary = run_elastic_case("full", duration_ns=int(sys.argv[1]) * 1_000_000, seed=0)
wall = time.perf_counter() - start
print(json.dumps({
    "wall_seconds": round(wall, 4),
    "audit_seconds": round(spent[0], 4),
    "audit_calls": spent[1],
    "peak_rss_mb": round(peak_rss_mb(), 1),
    "audit_problems": len(summary["audit_problems"]),
}))
"""


def test_elastic_audit_scaling():
    """Elastic ``full`` at 1x, 2x and 4x the horizon.  The audit after
    every verb reads the streaming monitor, so its cost no longer grows
    with the spans stored so far.  (The run itself still grows faster
    than the horizon: the wake-up thread keeps polling the completion
    slots of every vCPU ever registered.)"""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    rows = {}
    for horizon_ms in (60, 120, 240):
        out = subprocess.run(
            [sys.executable, "-c", _ELASTIC_AUDIT_PROBE, str(horizon_ms)],
            env=env, capture_output=True, text=True, check=True,
        )
        rows[f"{horizon_ms}ms"] = json.loads(out.stdout.splitlines()[-1])
    RESULTS.setdefault("audit", {})["elastic_full"] = {
        "workload": 'run_elastic_case("full"), seed 0, fresh interpreter each',
        **rows,
        "wall_ratio_240_vs_60": round(
            rows["240ms"]["wall_seconds"] / rows["60ms"]["wall_seconds"], 3
        ),
    }
    assert all(row["audit_problems"] == 0 for row in rows.values())
    # a rescan of every stored span per verb was 49% of the 240 ms run
    longest = rows["240ms"]
    assert longest["audit_seconds"] < 0.05 * longest["wall_seconds"]


def test_llc_construction():
    from repro.hw.cache import LLC_GEOMETRY, SetAssociativeCache

    build_s = _best_of(lambda: SetAssociativeCache(LLC_GEOMETRY), repeats=5)
    RESULTS.setdefault("audit", {})["llc_construction"] = {
        "workload": "SetAssociativeCache(LLC_GEOMETRY), sparse sets",
        "n_sets": LLC_GEOMETRY.n_sets,
        "seconds": round(build_s, 6),
    }


def test_fig6_cell_wallclock():
    run = lambda: _coremark_cell("gapped", 8, int(ms(200)), DEFAULT_COSTS)
    score, _ = run()
    assert score > 0
    RESULTS["fig6_cell"] = {
        "cell": "gapped/8-core coremark, 200 ms simulated",
        "seconds": round(_best_of(run), 4),
    }


def test_suite_parallel_speedup():
    cells = fig6_cells(
        core_counts=[2, 4, 8], duration_ns=int(ms(100)), include_busywait=False
    )
    serial_s = _best_of(lambda: run_cells(cells, jobs=1), repeats=2)
    jobs4_s = _best_of(lambda: run_cells(cells, jobs=4), repeats=2)
    speedup = serial_s / jobs4_s
    cpus = os.cpu_count() or 1
    auto_jobs = resolve_jobs("auto", n_cells=len(cells))
    RESULTS["suite"] = {
        "cells": len(cells),
        "jobs": 4,
        "serial_seconds": round(serial_s, 4),
        "jobs4_seconds": round(jobs4_s, 4),
        "parallel_speedup": round(speedup, 3),
        "auto_jobs": auto_jobs,
        "auto_jobs_note": (
            "single-CPU host: --jobs auto resolves to serial (a spawn "
            "pool would timeshare one core and pay start-up on top)"
            if cpus <= 1
            else f"{cpus} CPUs: --jobs auto resolves to "
            f"min(cpus, cells) = {auto_jobs} workers"
        ),
        "note": (
            "speedup requires >=4 CPUs; on fewer cores workers timeshare "
            "and pay process-spawn overhead, so the ratio is recorded "
            "but not asserted"
        )
        if cpus < 4
        else "",
    }
    if cpus <= 1:
        assert auto_jobs == 1
    else:
        assert 1 <= auto_jobs <= min(cpus, len(cells))
    if cpus >= 4:
        assert speedup >= 2.0, f"parallel speedup collapsed: {speedup:.2f}x"
