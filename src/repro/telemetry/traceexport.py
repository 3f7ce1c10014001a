"""Chrome/Perfetto trace-event JSON export of a telemetry stream.

Renders a (possibly merged, multi-process) telemetry event stream as
the Trace Event Format that ``chrome://tracing`` and
https://ui.perfetto.dev open directly:

* every closed **span** becomes one complete (``"ph": "X"``) event —
  spans are emitted at close carrying their duration, so the start is
  ``ts - dur`` — on the track of the process that ran it (one ``pid``
  track per worker, which is what makes the pool's load balance
  visible at a glance);
* every point **event** (solver-cache hits, ring wraps, divergences,
  ...) becomes an instant (``"ph": "i"``) on its worker's track; and
* each distinct pid gets a ``process_name`` metadata record.

Cross-process comparability comes from the registries themselves:
worker clocks are aligned to the parent timeline at handoff (see
:mod:`.context`), so this module just converts seconds to integer
microseconds and sorts.  Span identity (``trace_id``/``span_id``/
``parent_id``) rides in ``args`` for tooling that reconstructs the
causal tree.

:func:`validate_trace` is the schema contract the CI artifact and the
tests pin: required keys per phase, non-negative monotone timestamps,
non-negative durations, and a named track per pid.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Sequence, Union

__all__ = ["trace_events", "build_trace", "write_trace",
           "validate_trace"]

#: event fields copied into ``args`` when present on a span event
_SPAN_IDENTITY = ("trace_id", "span_id", "parent_id", "depth")


def _micros(seconds: float) -> int:
    return max(int(round(seconds * 1_000_000)), 0)


def trace_events(events: Sequence[Dict]) -> List[Dict]:
    """Convert telemetry events to trace-event dicts, sorted by ``ts``.

    Snapshot events carry no timeline information and are dropped.
    Events from old logs without a ``pid`` all land on track 0.
    """
    out: List[Dict] = []
    pids = []
    for event in events:
        kind = event.get("type")
        pid = int(event.get("pid", 0))
        if pid not in pids:
            pids.append(pid)
        ts = float(event.get("ts", 0.0))
        if kind == "span":
            dur = float(event.get("dur_s", 0.0))
            args = dict(event.get("attrs") or {})
            for field in _SPAN_IDENTITY:
                if event.get(field) is not None:
                    args[field] = event[field]
            if event.get("error"):
                args["error"] = True
            out.append({
                "name": event.get("name", "?"),
                "cat": "span",
                "ph": "X",
                "ts": _micros(ts - dur),
                "dur": _micros(dur),
                "pid": pid,
                "tid": pid,
                "args": args,
            })
        elif kind == "event":
            out.append({
                "name": event.get("name", "?"),
                "cat": "instant",
                "ph": "i",
                "s": "t",
                "ts": _micros(ts),
                "pid": pid,
                "tid": pid,
                "args": dict(event.get("attrs") or {}),
            })
    out.sort(key=lambda e: (e["ts"], e.get("dur", 0)))
    meta = [{
        "name": "process_name",
        "ph": "M",
        "ts": 0,
        "pid": pid,
        "tid": pid,
        "args": {"name": f"pid {pid}"},
    } for pid in sorted(pids)]
    return meta + out


def build_trace(events: Sequence[Dict]) -> Dict:
    """The full trace-event JSON document for a telemetry stream."""
    trace_ids = sorted({e["trace_id"] for e in events
                        if e.get("trace_id")})
    doc = {
        "traceEvents": trace_events(events),
        "displayTimeUnit": "ms",
    }
    if trace_ids:
        doc["otherData"] = {"trace_ids": trace_ids}
    return doc


def write_trace(events: Sequence[Dict],
                path: Union[str, pathlib.Path]) -> int:
    """Write the trace-event JSON for ``events``; returns event count."""
    doc = build_trace(events)
    pathlib.Path(path).write_text(json.dumps(doc) + "\n",
                                  encoding="utf-8")
    return len(doc["traceEvents"])


#: keys every exported record must carry, per phase
_REQUIRED = {"name", "ph", "ts", "pid", "tid"}


def validate_trace(doc: Dict) -> List[str]:
    """Schema check for an exported document; returns the problems.

    An empty list means the document satisfies the contract pinned by
    the CI artifact check: ``traceEvents`` present, every record has
    the required keys, ``X`` records have non-negative ``dur``,
    timestamps are non-negative and monotone in stream order (metadata
    records excepted), and every pid referenced has a ``process_name``
    track record.
    """
    problems: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document has no traceEvents array"]
    records = doc["traceEvents"]
    if not isinstance(records, list):
        return ["traceEvents is not a list"]
    named_pids = set()
    seen_pids = set()
    last_ts: Optional[int] = None
    for index, record in enumerate(records):
        missing = _REQUIRED - set(record)
        if missing:
            problems.append(f"record {index} missing {sorted(missing)}")
            continue
        ph = record["ph"]
        ts = record["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"record {index} has bad ts {ts!r}")
            continue
        seen_pids.add(record["pid"])
        if ph == "M":
            if record["name"] == "process_name":
                named_pids.add(record["pid"])
            continue
        if ph == "X":
            dur = record.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"record {index} has bad dur {dur!r}")
        if last_ts is not None and ts < last_ts:
            problems.append(f"record {index} ts {ts} < previous {last_ts}")
        last_ts = ts
    for pid in sorted(seen_pids - named_pids):
        problems.append(f"pid {pid} has no process_name track")
    return problems
