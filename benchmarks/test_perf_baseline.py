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
  ``PhysicalCore.execute`` call counts), and compute-span coalescing vs the
  per-chunk expansion.  Coalescing is scored in *legacy-equivalent*
  events/sec: the coalesced run retires the same simulated work with
  ~``chunks``× fewer engine events, so its effective rate is the
  expanded run's event count over the coalesced run's wall time.
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


def _span_workload(mod, coalesced, n_procs=8, n_spans=60, chunks=32):
    """The compute-span shape: each span is ``chunks`` identical fixed
    delays racing a never-firing doorbell (exactly what
    ``PhysicalCore.execute`` queues per chunk).  ``coalesced=True``
    queues each span as ONE such race, the event-stream effect of
    ``execute_span``.  Returns (scheduled_events, end_time): end times
    must agree between the two forms — same simulated outcome.
    """
    sim = mod.Simulator()
    chunk_ns = 500

    def worker(i):
        for _ in range(n_spans):
            if coalesced:
                wakeup = yield mod.AnyOf(
                    [mod.Delay(chunk_ns * chunks), mod.Delay(10**12)]
                )
                assert wakeup.index == 0
            else:
                for _ in range(chunks):
                    wakeup = yield mod.AnyOf(
                        [mod.Delay(chunk_ns), mod.Delay(10**12)]
                    )
                    assert wakeup.index == 0

    for i in range(n_procs):
        sim.spawn(worker(i), name=f"s{i}")
    sim.run()
    return sim._seq, sim.now


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


def test_lever_coalescing_effective_rate():
    expanded_events, expanded_end = _span_workload(live_engine, False)
    coalesced_events, coalesced_end = _span_workload(live_engine, True)
    assert coalesced_end == expanded_end  # same simulated outcome
    assert coalesced_events < expanded_events

    legacy_s = _best_of(lambda: _span_workload(_legacy_engine, False))
    expanded_s = _best_of(lambda: _span_workload(live_engine, False))
    coalesced_s = _best_of(lambda: _span_workload(live_engine, True))

    legacy_rate = expanded_events / legacy_s
    effective_rate = expanded_events / coalesced_s
    overall = legacy_s / coalesced_s
    RESULTS.setdefault("levers", {})["coalescing"] = {
        "expanded_events": expanded_events,
        "coalesced_events": coalesced_events,
        "event_reduction": round(expanded_events / coalesced_events, 2),
        "events_per_sec_expanded": round(expanded_events / expanded_s),
        "events_per_sec_effective": round(effective_rate),
        "coalesced_vs_expanded_speedup": round(expanded_s / coalesced_s, 3),
    }
    RESULTS["levers"]["overall"] = {
        "workload": "compute-span shape, legacy-equivalent events/sec",
        "events_per_sec_legacy": round(legacy_rate),
        "events_per_sec_coalesced_effective": round(effective_rate),
        "speedup_vs_legacy": round(overall, 2),
    }
    # the PR's acceptance target: >=10x legacy events/sec on the span
    # workload, raw dispatch and event elision multiplied together
    assert overall >= 10.0, (
        f"effective speedup vs legacy below target: {overall:.2f}x"
    )


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


def test_snapshot_fork_vs_reboot():
    """Fork one booted rack into N variants vs N from-scratch boots.

    The boot prefix (realm build, REC binding, device attach, client
    wiring) is what ``fork_map`` amortizes; the serve phase is paid
    either way.  Recorded as boot-amortization speedup: (boot+serve)*N
    from scratch vs boot once + N copy-on-write forks.
    """
    from repro.experiments.config import SystemConfig
    from repro.fleet import ScenarioSpec, boot_server, place, redis_tenant, uniform_rack
    from repro.snap import can_fork, fork_map

    if not can_fork():
        RESULTS["snap"] = {"note": "os.fork unavailable; not measured"}
        pytest.skip("os.fork unavailable on this platform")

    spec = ScenarioSpec(
        servers=uniform_rack(1, SystemConfig(mode="gapped", n_cores=8), seed=1),
        tenants=(
            redis_tenant("acme", n_vcpus=3, rate_rps=6000.0),
            redis_tenant("bravo", n_vcpus=3, rate_rps=4000.0),
        ),
        duration_ns=int(ms(10)),
        seed=1,
    )
    n_variants = 4
    serve_ns = [int(ms(2)) * (i + 1) for i in range(n_variants)]

    def boot():
        server = boot_server(spec, place(spec), 0)
        for client in server.clients:
            client.start(spec.duration_ns)
        return server

    def reboot_all():
        digests = []
        for duration in serve_ns:
            server = boot()
            server.system.run_for(duration)
            digests.append(server.system.state_digest())
        return digests

    def fork_all():
        server = boot()

        def variant(duration):
            server.system.run_for(duration)
            return server.system.state_digest()

        return fork_map(serve_ns, variant)

    assert fork_all() == reboot_all()  # warm-up doubles as correctness

    reboot_s = _best_of(reboot_all, repeats=3)
    fork_s = _best_of(fork_all, repeats=3)
    speedup = reboot_s / fork_s
    RESULTS["snap"] = {
        "variants": n_variants,
        "reboot_seconds": round(reboot_s, 4),
        "fork_seconds": round(fork_s, 4),
        "fork_vs_reboot_speedup": round(speedup, 3),
    }
    # forking must at least not cost more than rebooting; the real
    # margin scales with boot cost, which is modest at this size, so
    # the floor is deliberately loose against CI scheduler noise
    assert speedup >= 1.0, f"fork slower than reboot: {speedup:.3f}x"
