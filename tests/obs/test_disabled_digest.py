"""Observability must be inert when off: bit-identical disabled digests.

The golden file was captured from the sanitizer probe *before* the
observability instrumentation landed (traces disabled).  If any
instrumentation — trace events, gauges, profiling hooks — perturbs a
``trace_schedules=False`` run's records, spans, counters or metrics,
this comparison breaks byte-for-byte.

An untraced run stores no spans any more (the tenure monitor checks
them as they close), so the golden's spans -- captured when untraced
runs still stored them -- are compared against a traced run's: tracing
must not move a single span either.
"""

import json
from pathlib import Path

from repro.lint.sanitizer import RunDigest, run_probe

GOLDEN = Path(__file__).parent / "golden" / "disabled_probe_digest.json"


def canonical(digest) -> str:
    return (
        json.dumps(json.loads(digest.to_json()), sort_keys=True, indent=1)
        + "\n"
    )


class TestDisabledRunsAreUntouched:
    def test_disabled_probe_matches_pre_instrumentation_golden(self):
        digest = run_probe(trace_schedules=False)
        assert digest.spans == []
        traced = run_probe(trace_schedules=True)
        digest = RunDigest(
            digest.records, traced.spans, digest.counters, digest.metrics
        )
        assert canonical(digest) == GOLDEN.read_text(encoding="utf-8")

    def test_disabled_probe_stores_no_records(self):
        digest = run_probe(trace_schedules=False)
        assert digest.records == []
        assert digest.spans == []
        # counters (the digested accounting surface) are still kept
        assert any(":exits_total" in key for key in digest.counters)
