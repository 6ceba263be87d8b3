"""Canonical state capture: a running system -> a JSON-safe tree.

The capturer is *read-only*: it never mutates the objects it walks, so
a run that captures state at every checkpoint stays digest-identical
to one that never captures.  Restore correctness is then checked by
re-executing the recipe and comparing captures (see
:mod:`repro.snap.restore`) — the capture is the *witness* of state,
not the transport.  That sidesteps the one thing this simulator can
never serialize directly: live generator frames (every process body,
guest workload and planner thread is a suspended Python generator).
Generators are captured as ``(qualname, suspended line)`` descriptors,
which is exactly enough to detect divergence without pickling frames.

Canonicalization rules (deterministic by construction):

* scalars pass through; floats via ``repr`` (shortest round-trip);
* dicts are walked in sorted-key order, sets sorted canonically;
* registered classes (:data:`repro.snap.fields.SNAP_FIELDS`) capture
  their declared fields; dataclasses capture all declared fields;
* generators/callables become descriptors; ``random.Random`` becomes
  a hash of its Mersenne state (full 625-word position sensitivity);
* an object met twice becomes a ``<ref:Class>`` marker — captures are
  trees even though the object graph is cyclic.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import fields as dataclass_fields, is_dataclass
from enum import Enum
from random import Random
from typing import Any, Callable, Dict, List, Optional, Set

from .fields import SNAP_FIELDS, CaptureSpec

__all__ = [
    "canon",
    "capture_object",
    "capture_system",
    "capture_digest",
    "diff_captures",
]


def _sha16(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _spec_for(obj: Any) -> Optional[CaptureSpec]:
    for klass in type(obj).__mro__:
        key = f"{klass.__module__}:{klass.__qualname__}"
        spec = SNAP_FIELDS.get(key)
        if spec is not None:
            return spec
    return None


def _describe_callable(value: Callable) -> str:
    if isinstance(value, functools.partial):
        return f"partial:{_describe_callable(value.func)}"
    name = getattr(value, "__qualname__", None)
    if name is None:
        name = type(value).__qualname__
    return f"fn:{name}"


def _describe_generator(gen: Any) -> str:
    code = gen.gi_code
    name = getattr(code, "co_qualname", None) or code.co_name
    frame = gen.gi_frame
    where = "done" if frame is None else str(frame.f_lineno)
    return f"gen:{name}@{where}"


# -- per-field summarizers ----------------------------------------------
# Most fields canonicalize generically; these few would bloat captures
# (full trace record lists) or need a stable ordering the raw container
# does not promise (the binary heap's array layout).


def _sum_heap(heap: List, seen: Set[int]) -> List:
    # heapq's internal array layout is deterministic given the same
    # operation history, but sorting by the (when, key, seq) total order
    # is canonical and robust to layout-preserving refactors.
    entries = sorted(heap, key=lambda entry: entry[:3])
    return [
        [entry[0], entry[1], entry[2], canon(entry[3], seen)]
        for entry in entries
    ]


def _sum_trace_lines(lines: List[str]) -> Dict[str, Any]:
    return {"n": len(lines), "sha": _sha16("\n".join(lines))}


def _sum_records(records: List, seen: Set[int]) -> Dict[str, Any]:
    return _sum_trace_lines(
        [
            f"{r.time}|{r.kind}|{r.core}|{r.domain}|{r.detail}"
            for r in records
        ]
    )


def _sum_spans(spans: List, seen: Set[int]) -> Dict[str, Any]:
    return _sum_trace_lines(
        [f"{s.core}|{s.domain}|{s.start}|{s.end}" for s in spans]
    )


def _sum_samples(samples: Dict, seen: Set[int]) -> Dict[str, Any]:
    return {
        str(name): _sum_trace_lines([str(v) for v in values])
        for name, values in sorted(samples.items())
    }


_SUMMARIZERS: Dict[str, Callable[[Any, Set[int]], Any]] = {
    "repro.sim.engine:Simulator._heap": _sum_heap,
    "repro.sim.trace:Tracer.records": _sum_records,
    "repro.sim.trace:Tracer.spans": _sum_spans,
    "repro.sim.trace:Tracer._samples": _sum_samples,
}


# -- canonicalizer ------------------------------------------------------


def canon(value: Any, seen: Optional[Set[int]] = None) -> Any:
    """Deterministic JSON-safe canonical form of ``value``."""
    if seen is None:
        seen = set()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, (bytes, bytearray)):
        return f"bytes:{hashlib.sha256(bytes(value)).hexdigest()[:16]}"
    if isinstance(value, Enum):
        return f"{type(value).__qualname__}.{value.name}"
    if isinstance(value, Random):
        return f"rng:{_sha16(repr(value.getstate()))}"
    if isinstance(value, dict):
        out = {}
        for key in sorted(value, key=lambda k: str(canon(k))):
            out[str(canon(key))] = canon(value[key], seen)
        return out
    if isinstance(value, (list, tuple)) or type(value).__name__ == "deque":
        return [canon(item, seen) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(
            (canon(item) for item in value), key=lambda c: str(c)
        )
    if hasattr(value, "gi_code"):
        return _describe_generator(value)
    if callable(value) and not isinstance(value, type):
        return _describe_callable(value)
    if isinstance(value, type):
        return f"type:{value.__qualname__}"

    # object graph: registered classes and dataclasses recurse (once)
    spec = _spec_for(value)
    if spec is not None:
        if id(value) in seen:
            return f"<ref:{type(value).__qualname__}>"
        seen.add(id(value))
        return capture_object(value, spec=spec, seen=seen)
    if is_dataclass(value):
        if id(value) in seen:
            return f"<ref:{type(value).__qualname__}>"
        seen.add(id(value))
        out = {"__class__": type(value).__qualname__}
        for f in dataclass_fields(value):
            out[f.name] = canon(getattr(value, f.name), seen)
        return out
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return f"<{type(value).__qualname__}:{name}>"
    return f"<{type(value).__qualname__}>"


def capture_object(
    obj: Any,
    spec: Optional[CaptureSpec] = None,
    seen: Optional[Set[int]] = None,
) -> Dict[str, Any]:
    """Capture one registered object's declared fields."""
    if spec is None:
        spec = _spec_for(obj)
        if spec is None:
            raise KeyError(
                f"{type(obj).__module__}:{type(obj).__qualname__} is not "
                "registered in repro.snap.fields.SNAP_FIELDS"
            )
    if seen is None:
        seen = {id(obj)}
    else:
        seen.add(id(obj))
    key = f"{type(obj).__module__}:{type(obj).__qualname__}"
    out: Dict[str, Any] = {"__class__": type(obj).__qualname__}
    for name in spec.fields:
        summarize = _SUMMARIZERS.get(f"{key}.{name}")
        raw = getattr(obj, name)
        out[name] = (
            summarize(raw, seen) if summarize else canon(raw, seen)
        )
    return out


def capture_system(system: Any, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Full canonical capture of a :class:`System` (plus fleet extras).

    ``extra`` lets composition layers attach state the System does not
    own — the fleet supervisor passes its tenants' ``OpenLoopClient``
    accounting here, so checkpoints cover SLO state too.
    """
    capture: Dict[str, Any] = {"system": capture_object(system)}
    if extra:
        capture["extra"] = {
            str(key): canon(value) for key, value in sorted(extra.items())
        }
    return capture


def capture_digest(capture: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON encoding of a capture."""
    payload = json.dumps(
        capture, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def diff_captures(
    a: Any, b: Any, path: str = "", limit: int = 20
) -> List[str]:
    """Human-readable field-level divergences between two captures."""
    diffs: List[str] = []

    def walk(x: Any, y: Any, where: str) -> None:
        if len(diffs) >= limit:
            return
        if type(x) is not type(y):
            diffs.append(f"{where}: type {type(x).__name__} != {type(y).__name__}")
            return
        if isinstance(x, dict):
            for key in sorted(set(x) | set(y)):
                if key not in x:
                    diffs.append(f"{where}.{key}: only in restored")
                elif key not in y:
                    diffs.append(f"{where}.{key}: only in original")
                else:
                    walk(x[key], y[key], f"{where}.{key}")
                if len(diffs) >= limit:
                    return
        elif isinstance(x, list):
            if len(x) != len(y):
                diffs.append(f"{where}: length {len(x)} != {len(y)}")
                return
            for index, (xi, yi) in enumerate(zip(x, y)):
                walk(xi, yi, f"{where}[{index}]")
                if len(diffs) >= limit:
                    return
        elif x != y:
            diffs.append(f"{where}: {x!r} != {y!r}")

    walk(a, b, path or "capture")
    return diffs
