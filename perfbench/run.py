"""The repository benchmark: host cost of simulating four fixed workloads.

    python3 perfbench/run.py --workload serve-gapped --seed 0 --seconds 24 --trace 0

Runs one workload for about ``--seconds`` host seconds as a series of
samples, each a fresh single-threaded worker process (``worker.py``)
that sets up, simulates the workload's fixed horizon and checks the
simulated outputs.  Samples run one at a time.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced samples and reports the per-layer split
(``layers.py``).  It prints one ``name value unit`` line per metric and,
last, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The simulator is deterministic, so simulated statistics are checked,
not measured: a sample whose outputs differ from the digest recorded
for its seed (``digests.json``), or that breaks an invariant, counts as
a failed check.  See README.md for the workloads and metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from worker import SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
#: a sample that outlives this is a hang, not a measurement
SAMPLE_TIMEOUT_S = 150
#: fewest untraced samples a run reports on, whatever --seconds says
MIN_SAMPLES = 3
#: a run that has taken this many times its share of --seconds takes no
#: more samples
CAP = 1.25
#: sub-seeds per --seed; sample i of a run uses subseed(seed, i)
SUBSEEDS = 64
#: seeds whose sub-seeds have digests in digests.json (record_digests.py
#: --seeds 0-10); every --seed maps onto one of them, so the digest check
#: runs whatever seed a run is given
RECORDED_SEEDS = 11
#: host seconds of one untraced sample (process start to exit) on a
#: 2-vCPU x86-64 VM; a run's share of --seconds / this is its sample count
SAMPLE_S = {
    "serve-gapped": 1.7,
    "serve-flush": 1.7,
    "exit-storm": 2.2,
    "elastic-autoscale": 1.75,
}
#: a traced sample costs this many untraced ones (the profiler's overhead)
TRACED_COST = 3.3
#: each workload's run length, in units of --seconds.  serve-gapped's
#: samples spread most on a shared host, so it gets the most; the shares
#: add up to 4, so the four workloads take four times --seconds between
#: them
RUN_SHARE = {
    "serve-gapped": 1.25,
    "serve-flush": 0.75,
    "exit-storm": 1.0,
    "elastic-autoscale": 1.0,
}

#: seconds the speed probe (calibrate.py) takes on the reference VM;
#: host times are reported as if every sample had run at that speed
REFERENCE_PROBE_S = 0.12


def unit_of(name: str) -> str:
    if name == "sim.events_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name in ("trace.overhead", "security.audit_share"):
        return "ratio"
    return "count"


def subseed(seed: int, index: int) -> int:
    """The workload seed that sample ``index`` of a ``--seed`` run simulates."""
    return (seed % RECORDED_SEEDS) * SUBSEEDS + index


class Failure(Exception):
    """The benchmark itself could not run; no result is printed."""


def build() -> None:
    """Byte-compile the sources once, so no sample pays for it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise Failure(f"no simulator sources under {SRC}")
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        capture_output=True,
        text=True,
        timeout=SAMPLE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise Failure(f"compileall failed:\n{done.stdout}{done.stderr}")


def sample(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """One worker process, start to exit.

    A worker that exits with an error (the simulator raised) is a failed
    operation: it comes back as a one-check sample marked ``crashed``,
    with no times, and the run goes on without it.
    """
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if trace:
        command.append("--trace")
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise Failure(f"{workload} seed {seed}: sample hung") from exc
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {
            "seed": seed,
            "crashed": True,
            "attempted": 1,
            "failures": [f"seed {seed}: worker exited {done.returncode}: {last}"],
        }
    return json.loads(done.stdout.splitlines()[-1])


def plan(workload: str, seconds: float, trace: bool) -> int:
    """How many samples (traced: pairs) fill the workload's share of
    ``seconds`` at typical speed."""
    per_sample = SAMPLE_S[workload] * (1 + TRACED_COST if trace else 1)
    share = RUN_SHARE[workload] * seconds
    return max(1 if trace else MIN_SAMPLES, round(share / per_sample))


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> Tuple[List[Dict], List[Dict]]:
    """The run's samples: (untraced, traced).

    Sample ``i`` simulates workload seed ``subseed(seed, i)``, so one run
    averages over several input draws while the same ``--seed`` always
    gives the same inputs.  Traced, each sub-seed runs once
    untraced and once traced.  On a host slower than ``CAP`` times the
    typical speed the run stops early, once ``MIN_SAMPLES`` are in.
    """
    untraced: List[Dict] = []
    traced: List[Dict] = []
    fewest = 1 if trace else MIN_SAMPLES
    start = time.perf_counter()  # lint: allow(DET001) - run length cap
    for index in range(plan(workload, seconds, trace)):
        elapsed = time.perf_counter() - start  # lint: allow(DET001)
        if len(untraced) >= fewest and elapsed > CAP * RUN_SHARE[workload] * seconds:
            break
        inputs = subseed(seed, index)
        untraced.append(sample(workload, inputs, trace=False))
        if trace and not untraced[-1].get("crashed"):
            traced.append(sample(workload, inputs, trace=True))
    return untraced, traced


def at_reference_speed(s: Dict, key: str) -> float:
    """One sample's time scaled by its own speed probe, which ran in the
    same process just before the set-up and just after the run."""
    return s[key] * REFERENCE_PROBE_S / s["probe_s"]


def report(untraced: List[Dict], traced: List[Dict], trace: bool) -> Dict[str, Any]:
    failures: List[str] = []
    attempted = 0
    for s in untraced + traced:
        attempted += s["attempted"]
        failures.extend(s["failures"])
    untraced = [s for s in untraced if not s.get("crashed")]
    traced = [s for s in traced if not s.get("crashed")]
    if not untraced or (trace and not traced):
        raise Failure("no sample finished: " + "; ".join(failures))
    # a traced sample must simulate exactly what its untraced twin did
    twins = {s["seed"]: s for s in untraced}
    for profiled in traced:
        plain = twins[profiled["seed"]]
        attempted += 1
        if plain["digest"] != profiled["digest"]:
            failures.append(
                f"seed {plain['seed']}: traced digest {profiled['digest'][:16]}"
                f" != untraced {plain['digest'][:16]}"
            )

    median = statistics.median
    mean = statistics.mean
    if trace:
        # raw host seconds, means over the traced samples: means add up,
        # so the per-package self times plus trace.unattributed_s still
        # account for trace.run_s exactly
        values: Dict[str, float] = {
            name: mean(s["layers"][name] for s in traced)
            for name in traced[0]["layers"]
        }
        values["trace.run_s"] = mean(s["run_s"] for s in traced)
        values["trace.untraced_run_s"] = mean(s["run_s"] for s in untraced)
        values["trace.overhead"] = values["trace.run_s"] / values["trace.untraced_run_s"]
        values["sim.events_per_s"] = values["sim.events"] / values["trace.untraced_run_s"]
        values["security.audit_share"] = values["security.audit_s"] / values["trace.run_s"]
        values["calib.probe_s"] = median(s["probe_s"] for s in untraced + traced)
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    else:
        # medians: the sub-seeds differ in simulated work by under 2%, so
        # nearly all of the spread between samples is the host's, which
        # slows a sample now and then and never speeds one up
        metrics = {
            "run_s": {
                "value": median(at_reference_speed(s, "run_s") for s in untraced),
                "unit": "s",
            },
            "setup_s": {
                "value": median(at_reference_speed(s, "setup_s") for s in untraced),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": median(s["peak_rss_mb"] for s in untraced),
                "unit": "MB",
            },
        }
    for failure in failures:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        build()
        untraced, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        result = report(untraced, traced, bool(args.trace))
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(
        f"# {args.workload} seed {args.seed}: {len(untraced)} untraced + "
        f"{len(traced)} traced samples; output checks failed "
        f"{result['failed']}/{result['attempted']} "
        f"(failed_frac {result['failed'] / result['attempted']:.4f})"
    )
    for name, metric in result["metrics"].items():
        print(f"{name:28s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
