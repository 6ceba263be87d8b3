"""The static ``ScenarioSpec.boot()`` path is pinned bit-for-bit.

The elastic redesign routes every boot — static or churned — through
the :class:`~repro.fleet.elastic.FleetController` lifecycle API.  The
refactor is only legal if the static special case stays *bit-identical*
to the pre-redesign code: same counters, same completion totals, same
simulated end time on every server.  This golden was generated from the
pre-redesign tree (``REPRO_REGEN_GOLDEN=1`` rewrites it; the diff is
then a reviewable artifact, exactly like the policy-probe golden).

The golden was recorded untraced, when untraced runs still stored their
spans.  They no longer do, so the spans hash comes from a second run of
the scenario with ``trace_schedules=True``, which must agree with the
untraced run on everything else the golden pins.
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from repro.fleet.sweep import consolidation_scenario
from repro.sim.clock import ms

GOLDEN = Path(__file__).parent / "golden" / "static_boot.json"


def _scenario(trace=False):
    spec = consolidation_scenario(
        level=2,
        mode="gapped",
        n_servers=2,
        duration_ns=ms(30),
        seed=7,
    )
    servers = tuple(
        dataclasses.replace(config, trace_schedules=trace)
        for config in spec.servers
    )
    return dataclasses.replace(spec, servers=servers)


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _server_digest(server, tenants) -> dict:
    tracer = server.system.tracer
    records = [
        f"{r.time}|{r.kind}|{r.core}|{r.domain}|{r.detail}"
        for r in tracer.records
    ]
    spans = [f"{s.core}|{s.domain}|{s.start}|{s.end}" for s in tracer.spans]
    rows = [
        [
            t.tenant,
            t.issued,
            t.completed,
            t.dropped,
            t.slo_violations,
            round(t.p99_ms, 9),
        ]
        for t in tenants
        if t.server == server.index
    ]
    return {
        # the record/span streams are pinned by hash (they are ~750 KB
        # in the clear); counters and per-tenant outcomes stay readable
        # so a regression diff names what moved
        "records_sha256": _sha256(records),
        "spans_sha256": _sha256(spans),
        "counters": {k: int(v) for k, v in sorted(tracer.counters.items())},
        "end_ns": server.system.sim.now,
        "tenants": rows,
    }


def _run(trace=False) -> dict:
    spec = _scenario(trace)
    fleet = spec.boot()
    result = fleet.run()
    return {
        f"server{server.index}": _server_digest(server, result.tenants)
        for server in fleet.servers
    }


def _digests() -> dict:
    digests = _run()
    traced = _run(trace=True)
    for key, digest in digests.items():
        assert digest["spans_sha256"] == _sha256([])  # none stored
        for field in ("counters", "end_ns", "tenants"):
            assert traced[key][field] == digest[field], (
                f"{key}: tracing moved {field}"
            )
        digest["spans_sha256"] = traced[key]["spans_sha256"]
    return digests


class TestStaticBootGolden:
    def test_static_boot_matches_pre_redesign_golden(self):
        digests = _digests()
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN.write_text(
                json.dumps(digests, indent=2, sort_keys=True) + "\n"
            )
        golden = json.loads(GOLDEN.read_text())
        assert sorted(golden) == sorted(digests)
        for key in sorted(digests):
            assert golden[key] == digests[key], (
                f"{key}: static boot digest moved vs the pre-redesign "
                f"golden — the FleetController static path is not "
                f"bit-identical"
            )
