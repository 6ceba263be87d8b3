"""Chrome trace-event / Perfetto JSON exporter for simulated schedules.

Turns one :class:`~repro.sim.trace.Tracer` into a ``chrome://tracing``-
/ `ui.perfetto.dev <https://ui.perfetto.dev>`_-loadable JSON object:

===================  =====================================================
trace source          Perfetto representation
===================  =====================================================
execution spans       ``X`` (complete) slices, one thread track per
                      physical core under the "cores" process
``sgi.send/recv``     instants plus an ``s``→``f`` flow arrow from the
                      GIC wire slice to the receiving core's track
                      (cross-core notifications become visible arrows)
``rpc.submit/..``     async ``b``/``n``/``e`` events, one track per
                      RPC port under the "transport" process
``exit`` records      instants on the exiting core's track
``fault.inject``      instants on the "faults" track
other records         instants on the "events" track
counters/gauges       carried in ``otherData`` (not on the timeline)
===================  =====================================================

Timestamps convert from the integer-ns simulated clock to the format's
microseconds (``ts = time / 1000``); ``displayTimeUnit`` is ns.

Usage::

    from repro.obs.perfetto import export_trace, write_trace

    trace = export_trace(system.tracer, label="fig6/gapped/8")
    write_trace(system.tracer, "fig6_cell.trace.json")
    # then open the file in chrome://tracing or ui.perfetto.dev
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..sim.trace import Tracer

__all__ = [
    "export_trace",
    "write_trace",
    "validate_trace",
    "trace_summary",
]

#: process ids (Perfetto groups thread tracks by process)
PID_CORES = 0
PID_TRANSPORT = 1
PID_EVENTS = 2

#: fixed thread ids under the "events" process
TID_GIC = 0
TID_FAULTS = 1
TID_MISC = 2

_VALID_PHASES = {"X", "i", "I", "b", "n", "e", "s", "t", "f", "M", "C"}


def _us(time_ns: int) -> float:
    return time_ns / 1000.0


def _meta(pid: int, name: str, tid: Optional[int] = None) -> Dict[str, Any]:
    event: Dict[str, Any] = {
        "ph": "M",
        "pid": pid,
        "name": "process_name" if tid is None else "thread_name",
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def _detail_args(detail: Any) -> Dict[str, Any]:
    if isinstance(detail, dict):
        return dict(detail)
    if detail is None:
        return {}
    return {"detail": str(detail)}


def export_trace(tracer: Tracer, label: str = "repro") -> Dict[str, Any]:
    """Render ``tracer`` as a Chrome trace-event JSON object (a dict).

    Needs a tracer that stored its spans and records: exporting an
    untraced run raises rather than render an empty timeline.
    """
    if not tracer.enabled:
        raise ValueError(
            "export_trace needs a traced run (an untraced run stores no "
            "spans or records): build the system with "
            "SystemConfig(trace_schedules=True)"
        )
    events: List[Dict[str, Any]] = []

    # -- track naming metadata ----------------------------------------
    cores = sorted(
        {span.core for span in tracer.spans}
        | {r.core for r in tracer.records if r.core is not None}
    )
    events.append(_meta(PID_CORES, f"{label}: cores"))
    for core in cores:
        events.append(_meta(PID_CORES, f"core {core}", tid=core))
    events.append(_meta(PID_EVENTS, f"{label}: events"))
    events.append(_meta(PID_EVENTS, "gic", tid=TID_GIC))
    events.append(_meta(PID_EVENTS, "faults", tid=TID_FAULTS))
    events.append(_meta(PID_EVENTS, "misc", tid=TID_MISC))

    # -- execution spans: one X slice per contiguous occupancy --------
    for span in tracer.spans:
        events.append(
            {
                "ph": "X",
                "name": span.domain,
                "cat": "exec",
                "pid": PID_CORES,
                "tid": span.core,
                "ts": _us(span.start),
                "dur": _us(span.end - span.start),
            }
        )

    # -- pair SGI flows (send -> recv by flow id) ---------------------
    sgi_sends: Dict[int, Any] = {}
    sgi_recvs: Dict[int, Any] = {}
    for record in tracer.records:
        if isinstance(record.detail, dict) and "flow" in record.detail:
            flow = record.detail["flow"]
            if record.kind == "sgi.send":
                sgi_sends[flow] = record
            elif record.kind == "sgi.recv":
                sgi_recvs[flow] = record

    # -- RPC port tracks ----------------------------------------------
    port_tids: Dict[str, int] = {}
    rpc_seq: Dict[str, int] = {}

    def port_tid(port: str) -> int:
        if port not in port_tids:
            tid = len(port_tids)
            port_tids[port] = tid
            events.append(_meta(PID_TRANSPORT, port, tid=tid))
        return port_tids[port]

    events.append(_meta(PID_TRANSPORT, f"{label}: transport"))

    # -- records, in trace order --------------------------------------
    for record in tracer.records:
        args = _detail_args(record.detail)
        if record.domain is not None:
            args.setdefault("domain", record.domain)
        if record.kind == "sgi.send":
            flow = args.get("flow")
            target = args.get("target")
            name = f"sgi{args.get('intid')}→core{target}"
            recv = sgi_recvs.get(flow)
            if recv is not None:
                # the wire in flight: a slice on the gic track carrying
                # the flow start, so the arrow has a slice to leave from
                events.append(
                    {
                        "ph": "X",
                        "name": name,
                        "cat": "ipi",
                        "pid": PID_EVENTS,
                        "tid": TID_GIC,
                        "ts": _us(record.time),
                        "dur": _us(recv.time - record.time),
                        "args": args,
                    }
                )
                events.append(
                    {
                        "ph": "s",
                        "name": "sgi",
                        "cat": "ipi",
                        "id": flow,
                        "pid": PID_EVENTS,
                        "tid": TID_GIC,
                        "ts": _us(record.time),
                    }
                )
            else:
                events.append(
                    {
                        "ph": "i",
                        "name": name,
                        "cat": "ipi",
                        "s": "g",
                        "pid": PID_EVENTS,
                        "tid": TID_GIC,
                        "ts": _us(record.time),
                        "args": args,
                    }
                )
        elif record.kind == "sgi.recv":
            flow = args.get("flow")
            core = record.core if record.core is not None else TID_MISC
            pid = PID_CORES if record.core is not None else PID_EVENTS
            events.append(
                {
                    "ph": "i",
                    "name": f"sgi{args.get('intid')}",
                    "cat": "ipi",
                    "s": "t",
                    "pid": pid,
                    "tid": core,
                    "ts": _us(record.time),
                    "args": args,
                }
            )
            if flow in sgi_sends:
                events.append(
                    {
                        "ph": "f",
                        "bp": "e",
                        "name": "sgi",
                        "cat": "ipi",
                        "id": flow,
                        "pid": pid,
                        "tid": core,
                        "ts": _us(record.time),
                    }
                )
        elif record.kind in ("rpc.submit", "rpc.complete", "rpc.collect"):
            port = args.get("port", record.domain or "rpc")
            tid = port_tid(port)
            if record.kind == "rpc.submit":
                rpc_seq[port] = rpc_seq.get(port, 0) + 1
            call_id = f"{port}#{rpc_seq.get(port, 0)}"
            phase = {
                "rpc.submit": "b",
                "rpc.complete": "n",
                "rpc.collect": "e",
            }[record.kind]
            events.append(
                {
                    "ph": phase,
                    "name": "run-call",
                    "cat": "rpc",
                    "id": call_id,
                    "pid": PID_TRANSPORT,
                    "tid": tid,
                    "ts": _us(record.time),
                    "args": args,
                }
            )
        elif record.kind == "exit":
            core = record.core if record.core is not None else TID_MISC
            pid = PID_CORES if record.core is not None else PID_EVENTS
            events.append(
                {
                    "ph": "i",
                    "name": f"exit:{args.get('detail', '?')}",
                    "cat": "exit",
                    "s": "t",
                    "pid": pid,
                    "tid": core,
                    "ts": _us(record.time),
                    "args": args,
                }
            )
        elif record.kind == "fault.inject":
            events.append(
                {
                    "ph": "i",
                    "name": f"fault:{args.get('detail', '?')}",
                    "cat": "fault",
                    "s": "g",
                    "pid": PID_EVENTS,
                    "tid": TID_FAULTS,
                    "ts": _us(record.time),
                    "args": args,
                }
            )
        else:
            core = record.core
            events.append(
                {
                    "ph": "i",
                    "name": record.kind,
                    "cat": "event",
                    "s": "t" if core is not None else "g",
                    "pid": PID_CORES if core is not None else PID_EVENTS,
                    "tid": core if core is not None else TID_MISC,
                    "ts": _us(record.time),
                    "args": args,
                }
            )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "label": label,
            "counters": {
                key: int(value)
                for key, value in sorted(tracer.counters.items())
            },
            "gauges": dict(sorted(tracer.gauges.items())),
        },
    }


def write_trace(
    tracer: Tracer, path: str, label: str = "repro"
) -> Dict[str, Any]:
    """Export ``tracer`` and write the JSON to ``path``; returns the dict."""
    trace = export_trace(tracer, label=label)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
        handle.write("\n")
    return trace


# ---------------------------------------------------------------------------
# validation (used by tests and the CI obs job)


def validate_trace(trace: Dict[str, Any]) -> List[str]:
    """Structural trace-event-format checks; returns error strings.

    Covers what a viewer needs to load the file: known phases, numeric
    timestamps, durations on complete events, ids on async/flow events,
    and that every flow finish has a matching start.
    """
    errors: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    flow_starts = set()
    flow_finishes: List[Tuple[Any, int]] = []
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        if "pid" not in event:
            errors.append(f"{where}: missing pid")
        if phase != "M":
            if not isinstance(event.get("ts"), (int, float)):
                errors.append(f"{where}: non-numeric ts")
            if event.get("ts", 0) < 0:
                errors.append(f"{where}: negative ts")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                errors.append(f"{where}: X event needs dur >= 0")
        if phase in ("b", "n", "e", "s", "t", "f") and "id" not in event:
            errors.append(f"{where}: {phase} event needs an id")
        if phase == "s":
            flow_starts.add(event.get("id"))
        if phase == "f":
            flow_finishes.append((event.get("id"), index))
        if phase in ("X", "i", "I", "b", "M") and not event.get("name"):
            errors.append(f"{where}: missing name")
    for flow_id, index in flow_finishes:
        if flow_id not in flow_starts:
            errors.append(
                f"traceEvents[{index}]: flow finish {flow_id!r} "
                "has no matching start"
            )
    return errors


def trace_summary(trace: Dict[str, Any]) -> Dict[str, int]:
    """Quick structural facts for assertions: track and arrow counts."""
    events = trace.get("traceEvents", [])
    core_tracks = {
        event.get("tid")
        for event in events
        if event.get("ph") == "X" and event.get("pid") == PID_CORES
    }
    starts = {
        event.get("id") for event in events if event.get("ph") == "s"
    }
    finishes = {
        event.get("id") for event in events if event.get("ph") == "f"
    }
    cross_core = 0
    by_id: Dict[Any, Dict[str, Any]] = {}
    for event in events:
        if event.get("ph") == "s":
            by_id.setdefault(event.get("id"), {})["s"] = event
        elif event.get("ph") == "f":
            by_id.setdefault(event.get("id"), {})["f"] = event
    for pair in by_id.values():
        start, finish = pair.get("s"), pair.get("f")
        if start and finish and (
            (start.get("pid"), start.get("tid"))
            != (finish.get("pid"), finish.get("tid"))
        ):
            cross_core += 1
    return {
        "events": len(events),
        "core_tracks": len(core_tracks),
        "flow_pairs": len(starts & finishes),
        "cross_core_flows": cross_core,
    }
