"""One benchmark sample, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload serve-gapped --seed 0 [--trace]

Sets up one workload, simulates its fixed horizon, checks the simulated
outputs and prints one JSON object on stdout.  ``setup_s`` runs from the
worker's start (before any ``repro`` import) to the workload's first
simulated nanosecond; ``run_s`` covers the horizon and the drain.  The
output checks run after both clocks have stopped, so they are never
timed.  A speed probe (``calibrate.py``) runs before the setup and after
the run, outside both clocks.  With ``--trace`` the run phase is also
split by package (``layers.py``); the traced process simulates exactly
the same events.
"""

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from calibrate import time_reference_load

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"

#: Simulated horizon of each workload.  Host cost grows with the horizon
#: (``elastic-autoscale`` faster than linearly, through the per-verb
#: audit), so each is sized to a few host seconds per sample.
HORIZON_MS = {
    "serve-gapped": 100,
    "serve-flush": 200,
    "exit-storm": 200,
    "elastic-autoscale": 200,
}
WORKLOADS = tuple(HORIZON_MS)


def clock() -> float:
    return time.perf_counter()  # lint: allow(DET001) - host time is the metric


@contextlib.contextmanager
def patched(owner: Any, name: str, wrap: Callable[[Any], Any]):
    """Replace ``owner.name`` by ``wrap(original)`` for the block.

    The benchmark observes the public harness calls this way, from its
    own code; nothing under ``src/`` knows it is being measured.
    """
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


class Phases:
    """Wall-clock marks of one sample.  ``start_run`` is the workload's
    first simulated nanosecond; only its first call counts."""

    def __init__(self, profiler: Any = None):
        self.profiler = profiler
        self.start = clock()
        self.imported: float = 0.0
        self.ready: Optional[float] = None
        self.done: float = 0.0

    def start_run(self) -> None:
        if self.ready is None:
            self.ready = clock()
            if self.profiler is not None:
                self.profiler.enable()

    def end_run(self) -> None:
        if self.profiler is not None:
            self.profiler.disable()
        self.done = clock()


@dataclass
class Outcome:
    """What one workload run leaves behind for the checks and counters."""

    #: the public harness call's simulated outputs; canonically digested
    result: Any
    #: every simulated server of the run
    systems: List[Any]
    #: (tenant, issued, completed, dropped) per served tenant
    tenants: List[Tuple[str, int, int, int]] = field(default_factory=list)
    #: (holds, what) for invariants the harness itself reports
    harness_checks: List[Tuple[bool, str]] = field(default_factory=list)


def _import_repro() -> None:
    """Every ``repro`` module the workloads touch; timed as setup.import_s."""
    sys.path.insert(0, str(SRC))
    import repro.experiments.runner  # noqa: F401
    import repro.experiments.workbench  # noqa: F401
    import repro.fleet.elastic  # noqa: F401
    import repro.fleet.sweep  # noqa: F401
    import repro.security.audit  # noqa: F401


def _serve(workload: str, mode: str, seed: int, phases: Phases) -> Outcome:
    """Three 4-vCPU Redis tenants (SET, GET, SET) at 6000 rps each on one
    16-core server: ``consolidation_scenario`` level 3, booted and served
    through the fleet sweep's own place/boot/run path."""
    from repro.fleet.placement import place
    from repro.fleet.scenario import boot_server, run_server
    from repro.fleet.sweep import consolidation_scenario
    from repro.sim.clock import ms

    spec = consolidation_scenario(
        3,
        mode,
        n_servers=1,
        duration_ns=ms(HORIZON_MS[workload]),
        seed=seed,
    )
    placement = place(spec)
    if placement.rejected:
        raise SystemExit(f"worker: admission refused {placement.rejected}")
    server = boot_server(spec, placement, 0)
    phases.start_run()
    rows = run_server(server, spec)
    phases.end_run()
    system = server.system
    return Outcome(
        result={"tenants": rows, "exits": system.exit_counts()},
        systems=[system],
        tenants=[
            (
                client.tenant.name,
                client.stats.issued,
                len(client.stats.latencies_ns),
                client.stats.dropped,
            )
            for client in server.clients
        ],
    )


def serve_gapped(seed: int, phases: Phases) -> Outcome:
    return _serve("serve-gapped", "gapped", seed, phases)


def serve_flush(seed: int, phases: Phases) -> Outcome:
    return _serve("serve-flush", "shared-cvm", seed, phases)


def exit_storm(seed: int, phases: Phases) -> Outcome:
    """CoreMark on 16 gapped cores without interrupt delegation (the fig6
    ``gapped-nodeleg`` cell): every timer tick exits to the host core."""
    from repro.experiments.config import SystemConfig
    from repro.experiments.system import System
    from repro.experiments.workbench import run_coremark
    from repro.sim.clock import ms

    systems: List[Any] = []

    def mark_first_run(run_for):
        def timed(system, duration_ns):
            systems.append(system)
            phases.start_run()
            return run_for(system, duration_ns)

        return timed

    with patched(System, "run_for", mark_first_run):
        run = run_coremark(
            SystemConfig(delegation=False, seed=seed),
            duration_ns=ms(HORIZON_MS["exit-storm"]),
        )
    phases.end_run()
    return Outcome(result=run, systems=systems[:1])


def elastic_autoscale(seed: int, phases: Phases) -> Outcome:
    """``run_elastic_case("autoscale")``: the autoscaler resizes the
    tenants of two gapped servers one vCPU at a time, each resize ending
    in a core-gap audit.  Set-up is the ``FleetController`` construction.

    The ``full`` case (churn and rebalancing too) is not used: on some
    seeds its evict path raises ``RealmError`` (see README.md).
    """
    from repro.fleet.elastic import FleetController, run_elastic_case
    from repro.sim.clock import ms

    controllers: List[Any] = []

    def mark_constructed(init):
        def constructed(controller, *args, **kwargs):
            init(controller, *args, **kwargs)
            controllers.append(controller)
            phases.start_run()

        return constructed

    with patched(FleetController, "__init__", mark_constructed):
        summary = run_elastic_case(
            "autoscale",
            duration_ns=ms(HORIZON_MS["elastic-autoscale"]),
            seed=seed,
        )
    phases.end_run()
    problems = summary["audit_problems"]
    return Outcome(
        result=summary,
        systems=[s.system for s in controllers[0].fleet.servers],
        # conservation_ok is exactly the per-tenant rows' equality, so it
        # is checked row by row like the serve workloads' tenants
        tenants=[
            (row["tenant"], row["issued"], row["completed"], row["dropped"])
            for row in summary["tenants"]
        ],
        harness_checks=[(not problems, f"in-run audits: {problems[:3]}")],
    )


RUNNERS: Dict[str, Callable[[int, Phases], Outcome]] = {
    "serve-gapped": serve_gapped,
    "serve-flush": serve_flush,
    "exit-storm": exit_storm,
    "elastic-autoscale": elastic_autoscale,
}


def recorded_digest(workload: str, seed: int) -> Optional[str]:
    with DIGESTS.open() as handle:
        recorded = json.load(handle)
    return recorded.get(workload, {}).get(str(seed))


def check(workload: str, seed: int, outcome: Outcome) -> Tuple[str, List[str], int]:
    """Run the output checks; returns (digest, failures, checks attempted)."""
    from repro.experiments.runner import canonical_digest
    from repro.security.audit import CoreGapAuditor

    failures: List[str] = []
    attempted = 0

    def expect(ok: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(what)

    digest = canonical_digest(outcome.result)
    expected = recorded_digest(workload, seed)
    if expected is not None:
        expect(digest == expected, f"digest {digest[:16]} != recorded {expected[:16]}")
    for name, issued, completed, dropped in outcome.tenants:
        expect(
            issued == completed + dropped,
            f"{name}: issued {issued} != completed {completed} + dropped {dropped}",
        )
    if workload.startswith("serve-"):
        system = outcome.systems[0]
        counted = system.metrics.counter("fleet_request_count").value
        completed = sum(row[2] for row in outcome.tenants)
        expect(
            counted == completed,
            f"fleet_request_count {counted} != completions {completed}",
        )
    for holds, what in outcome.harness_checks:
        expect(holds, what)
    for index, system in enumerate(outcome.systems):
        if system.config.is_gapped:
            violations = CoreGapAuditor().audit_schedule(system.tracer)
            expect(not violations, f"server{index}: core-gap audit {violations[:3]}")
    return digest, failures, attempted


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    probe_before = time_reference_load()
    profiler = None
    if args.trace:
        import cProfile

        profiler = cProfile.Profile()
    phases = Phases(profiler)
    _import_repro()
    phases.imported = clock()
    with contextlib.ExitStack() as stack:
        timers = None
        if args.trace:
            import layers

            timers = layers.WallTimers()
            timers.install(stack)
        outcome = RUNNERS[args.workload](args.seed, phases)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.freeze()  # the probe must not pay for collecting the run's objects
    probe_after = time_reference_load()
    digest, failures, attempted = check(args.workload, args.seed, outcome)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": digest,
        "attempted": attempted,
        "failures": failures,
        "run_s": phases.done - phases.ready,
        "setup_s": phases.ready - phases.start,
        "peak_rss_mb": peak_rss_mb,
        "probe_s": (probe_before + probe_after) / 2,
    }
    if args.trace:
        record["layers"] = layers.split(
            outcome, profiler, timers, phases, SRC / "repro"
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
