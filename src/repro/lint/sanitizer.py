"""Runtime schedule-race sanitizer.

The static passes cannot see every nondeterminism: a dict keyed by
object identity, an order-sensitive reduction over hash-ordered data,
or a genuine schedule race between same-timestamp events.  This pass
*executes* a small probe experiment (a short core-gapped CoreMark run
with schedule tracing on) several ways and diffs canonical digests of
its traces and metrics:

* **SAN001 (replay)** — the probe runs twice in-process with the same
  seed; traces and metrics must be bit-identical (DESIGN.md
  invariant #6 verbatim).
* **SAN002 (hash seed)** — the probe runs in two subprocesses with
  different ``PYTHONHASHSEED`` values; digests must match.  Catches
  results riding on ``set``/hash iteration order that the static
  DET005 heuristic missed.
* **SAN003 (tie-break)** — the probe runs with same-timestamp event
  ordering permuted (``Simulator(tie_break=...)``): FIFO vs LIFO vs a
  seeded shuffle.  A permuted key reorders only *causally unrelated*
  simultaneous events, so the paper-level **metrics** (scores, exit
  counts) must not move.  Full traces may legitimately differ — two
  independent events swapping places is not a bug — so SAN003 diffs
  metrics only.

The diff helper (:func:`diff_digests`) is reused by the invariant #6
end-to-end test in ``tests/experiments/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..costs import DEFAULT_COSTS
from ..experiments.config import SystemConfig
from ..experiments.workbench import build_system, vcpus_for
from ..guest.vm import GuestVm
from ..guest.workloads import CoremarkStats, coremark_score, coremark_workload_factory
from ..sim.clock import ms
from .findings import Finding

__all__ = [
    "RunDigest",
    "run_probe",
    "diff_digests",
    "run_sanitizer",
    "SANITIZER_ORIGIN",
]

#: pseudo-path used for sanitizer findings (they have no source line)
SANITIZER_ORIGIN = "<repro.lint.sanitizer>"


@dataclass
class RunDigest:
    """Canonical, comparable serialization of one probe run."""

    #: canonical trace lines "t|kind|core|domain|detail"
    records: List[str]
    #: execution spans "core|domain|start|end"
    spans: List[str]
    #: named event counters, sorted
    counters: Dict[str, int]
    #: paper-level metrics (score, exit counts, sim end time)
    metrics: Dict[str, object]

    def to_json(self) -> str:
        return json.dumps(
            {
                "records": self.records,
                "spans": self.spans,
                "counters": self.counters,
                "metrics": self.metrics,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunDigest":
        data = json.loads(text)
        return cls(
            records=data["records"],
            spans=data["spans"],
            counters=data["counters"],
            metrics=data["metrics"],
        )


#: probe scenarios: the undelegated core-gapped run exercises the
#: exit-heavy remote-RPC path (timer exits, host kicks, wake-up
#:  thread); the shared run exercises same-core KVM dispatch and IRQs
_PROBE_SCENARIOS = [
    ("gapped-nodeleg", {"mode": "gapped", "delegation": False}),
    ("shared", {"mode": "shared"}),
]


def _run_scenario(
    label: str,
    overrides: Dict[str, object],
    seed: int,
    tie_break: str,
    n_cores: int,
    duration_ms: int,
    trace_schedules: bool = True,
) -> RunDigest:
    config = SystemConfig(
        n_cores=n_cores,
        seed=seed,
        trace_schedules=trace_schedules,
        tie_break=tie_break,
        **overrides,  # type: ignore[arg-type]
    )
    system = build_system(config, DEFAULT_COSTS)
    stats = CoremarkStats()
    vm = GuestVm(
        f"probe-{label}",
        vcpus_for(config, n_cores),
        coremark_workload_factory(stats),
        costs=DEFAULT_COSTS,
    )
    kvm = system.launch(vm)
    system.start(kvm)
    start = system.sim.now
    system.run_for(ms(duration_ms))
    elapsed = system.sim.now - start
    system.finish()

    tracer = system.tracer
    records = [
        f"{label}|{r.time}|{r.kind}|{r.core}|{r.domain}|{r.detail}"
        for r in tracer.records
    ]
    spans = [
        f"{label}|{s.core}|{s.domain}|{s.start}|{s.end}"
        for s in tracer.spans
    ]
    counters = {
        f"{label}:{k}": int(v) for k, v in sorted(tracer.counters.items())
    }
    exit_counts = {
        k: int(v) for k, v in sorted(system.exit_counts().items())
    }
    metrics: Dict[str, object] = {
        f"{label}:score": repr(coremark_score(stats, elapsed)),
        f"{label}:elapsed_ns": elapsed,
        f"{label}:end_ns": system.sim.now,
        f"{label}:exit_counts": exit_counts,
    }
    return RunDigest(records, spans, counters, metrics)


def run_probe(
    seed: int = 0,
    tie_break: str = "fifo",
    n_cores: int = 4,
    duration_ms: int = 40,
    trace_schedules: bool = True,
) -> RunDigest:
    """Run all probe scenarios once and digest traces and metrics.

    ``trace_schedules=False`` runs with observability disabled — the
    digest then proves instrumentation is inert when off (the golden
    file under ``tests/obs/`` pins the pre-instrumentation bytes).
    """
    combined = RunDigest([], [], {}, {})
    for label, overrides in _PROBE_SCENARIOS:
        digest = _run_scenario(
            label, overrides, seed, tie_break, n_cores, duration_ms,
            trace_schedules=trace_schedules,
        )
        combined.records.extend(digest.records)
        combined.spans.extend(digest.spans)
        combined.counters.update(digest.counters)
        combined.metrics.update(digest.metrics)
    return combined


def _diff_lists(label: str, a: List[str], b: List[str], limit: int) -> List[str]:
    out: List[str] = []
    if len(a) != len(b):
        out.append(f"{label}: {len(a)} vs {len(b)} entries")
    for index, (left, right) in enumerate(zip(a, b)):
        if left != right:
            out.append(f"{label}[{index}]: {left!r} != {right!r}")
            if len(out) >= limit:
                out.append(f"{label}: ... (truncated)")
                return out
    return out


def diff_digests(
    a: RunDigest,
    b: RunDigest,
    metrics_only: bool = False,
    limit: int = 8,
) -> List[str]:
    """Human-readable divergences between two digests ([] if identical)."""
    out: List[str] = []
    if a.metrics != b.metrics:
        for key in sorted(set(a.metrics) | set(b.metrics)):
            left, right = a.metrics.get(key), b.metrics.get(key)
            if left != right:
                out.append(f"metrics[{key}]: {left!r} != {right!r}")
    if metrics_only:
        return out
    if a.counters != b.counters:
        for key in sorted(set(a.counters) | set(b.counters)):
            left, right = a.counters.get(key), b.counters.get(key)
            if left != right:
                out.append(f"counters[{key}]: {left} != {right}")
    out.extend(_diff_lists("records", a.records, b.records, limit))
    out.extend(_diff_lists("spans", a.spans, b.spans, limit))
    return out


def _probe_in_subprocess(
    hashseed: int, seed: int, tie_break: str
) -> RunDigest:
    """Run the probe under a specific PYTHONHASHSEED in a child python."""
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = (
        f"{src_root}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(src_root)
    )
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.lint.sanitizer",
            "--emit-digest",
            "--seed",
            str(seed),
            "--tie-break",
            tie_break,
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return RunDigest.from_json(result.stdout)


def run_sanitizer(
    seed: int = 0,
    subprocess_checks: bool = True,
    tie_breaks: Optional[List[str]] = None,
) -> List[Finding]:
    """Run all sanitizer checks; returns findings (empty when healthy)."""
    findings: List[Finding] = []

    def report(rule: str, check: str, divergences: List[str]) -> None:
        detail = "; ".join(divergences[:4])
        findings.append(
            Finding(
                SANITIZER_ORIGIN,
                0,
                rule,
                f"{check}: {len(divergences)} divergence(s): {detail}",
            )
        )

    # SAN001: same-seed in-process replay must be bit-identical
    baseline = run_probe(seed=seed)
    replay = run_probe(seed=seed)
    divergences = diff_digests(baseline, replay)
    if divergences:
        report("SAN001", "same-seed replay", divergences)

    # SAN002: differing PYTHONHASHSEED must not move anything
    if subprocess_checks:
        try:
            digest_a = _probe_in_subprocess(1, seed, "fifo")
            digest_b = _probe_in_subprocess(271828, seed, "fifo")
        except subprocess.CalledProcessError as exc:
            findings.append(
                Finding(
                    SANITIZER_ORIGIN,
                    0,
                    "SAN002",
                    "probe subprocess failed: "
                    + (exc.stderr or "").strip()[-200:],
                )
            )
        else:
            divergences = diff_digests(digest_a, digest_b)
            if divergences:
                report("SAN002", "PYTHONHASHSEED 1 vs 271828", divergences)
            # the in-process run must match the subprocess one too
            divergences = diff_digests(baseline, digest_a)
            if divergences:
                report("SAN002", "in-process vs subprocess", divergences)

    # SAN003: permuted same-timestamp tie-breaking must not move metrics
    for tie_break in tie_breaks if tie_breaks is not None else ["lifo", "seeded:7"]:
        permuted = run_probe(seed=seed, tie_break=tie_break)
        divergences = diff_digests(baseline, permuted, metrics_only=True)
        if divergences:
            report("SAN003", f"tie-break fifo vs {tie_break}", divergences)
    return findings


def _main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m repro.lint.sanitizer")
    parser.add_argument("--emit-digest", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tie-break", default="fifo")
    parser.add_argument(
        "--no-subprocess",
        action="store_true",
        help="skip the PYTHONHASHSEED subprocess checks",
    )
    args = parser.parse_args(argv)
    if args.emit_digest:
        print(run_probe(seed=args.seed, tie_break=args.tie_break).to_json())
        return 0
    findings = run_sanitizer(
        seed=args.seed, subprocess_checks=not args.no_subprocess
    )
    for finding in findings:
        print(finding.render())
    print(
        f"repro.lint.sanitizer: {len(findings)} finding(s)"
        if findings
        else "repro.lint.sanitizer: clean"
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(_main())
