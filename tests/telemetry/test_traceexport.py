"""Chrome/Perfetto trace-event export: conversion, schema, end to end."""

import itertools
import json
import time
from types import SimpleNamespace

from repro.telemetry import (MemorySink, Telemetry, build_trace, registry,
                             validate_trace, write_trace)
from repro.telemetry.traceexport import trace_events


def _instrumented_run():
    sink = MemorySink()
    tel = Telemetry(sink)
    with tel.span("outer", iteration=1):
        tel.event("tick", n=1)
        with tel.span("inner"):
            pass
    tel.emit_snapshot()
    return tel, sink.events


class TestConversion:
    def test_spans_become_complete_events(self):
        tel, events = _instrumented_run()
        records = trace_events(events)
        xs = [r for r in records if r["ph"] == "X"]
        assert {r["name"] for r in xs} == {"outer", "inner"}
        for r in xs:
            assert r["ts"] >= 0 and r["dur"] >= 0
            assert r["args"]["trace_id"] == tel.trace_id
        outer = next(r for r in xs if r["name"] == "outer")
        inner = next(r for r in xs if r["name"] == "inner")
        # start = close ts - dur: the outer span starts first
        assert outer["ts"] <= inner["ts"]
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert outer["args"]["iteration"] == 1

    def test_nested_spans_start_at_their_entry_time(self, monkeypatch):
        # a clock that steps one second per read: a span event stamped
        # by a read after the one that closed the span would export a
        # start (ts - dur) one step late, after its child's
        ticks = itertools.count()
        monkeypatch.setattr(registry, "time", SimpleNamespace(
            perf_counter=lambda: float(next(ticks)), time=time.time))
        sink = MemorySink()
        tel = Telemetry(sink)
        with tel.span("outer") as outer:
            with tel.span("inner") as inner:
                tel.event("tick")
        starts = {r["name"]: r["ts"] for r in trace_events(sink.events)
                  if r["ph"] == "X"}
        assert starts == {
            span.name: int((span._started - tel._epoch) * 1_000_000)
            for span in (outer, inner)}
        assert starts["outer"] < starts["inner"]

    def test_events_become_instants(self):
        _, events = _instrumented_run()
        instants = [r for r in trace_events(events) if r["ph"] == "i"]
        assert [r["name"] for r in instants] == ["tick"]
        assert instants[0]["args"] == {"n": 1}

    def test_snapshots_dropped_and_metadata_added(self):
        _, events = _instrumented_run()
        records = trace_events(events)
        assert not any(r["name"] == "telemetry.snapshot" for r in records)
        metas = [r for r in records if r["ph"] == "M"]
        assert len(metas) == 1           # one pid in-process
        assert metas[0]["name"] == "process_name"

    def test_one_track_per_pid(self):
        _, events = _instrumented_run()
        shifted = [dict(e, pid=e["pid"] + 1) for e in events]
        records = trace_events(events + shifted)
        metas = [r for r in records if r["ph"] == "M"]
        assert len(metas) == 2
        pids = {r["pid"] for r in records if r["ph"] != "M"}
        assert len(pids) == 2

    def test_records_sorted_by_ts(self):
        _, events = _instrumented_run()
        body = [r for r in trace_events(events) if r["ph"] != "M"]
        assert [r["ts"] for r in body] == sorted(r["ts"] for r in body)

    def test_error_span_flagged(self):
        sink = MemorySink()
        tel = Telemetry(sink)
        try:
            with tel.span("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        (record,) = [r for r in trace_events(sink.events)
                     if r["ph"] == "X"]
        assert record["args"]["error"] is True


class TestValidate:
    def test_valid_document_passes(self):
        _, events = _instrumented_run()
        assert validate_trace(build_trace(events)) == []

    def test_missing_keys_reported(self):
        doc = {"traceEvents": [{"ph": "X", "ts": 0}]}
        problems = validate_trace(doc)
        assert any("missing" in p for p in problems)

    def test_negative_duration_reported(self):
        doc = {"traceEvents": [
            {"name": "process_name", "ph": "M", "ts": 0, "pid": 1,
             "tid": 1},
            {"name": "s", "ph": "X", "ts": 0, "dur": -1, "pid": 1,
             "tid": 1},
        ]}
        assert any("dur" in p for p in validate_trace(doc))

    def test_unnamed_pid_reported(self):
        doc = {"traceEvents": [
            {"name": "s", "ph": "X", "ts": 0, "dur": 1, "pid": 7,
             "tid": 7},
        ]}
        assert any("process_name" in p for p in validate_trace(doc))

    def test_out_of_order_ts_reported(self):
        doc = {"traceEvents": [
            {"name": "process_name", "ph": "M", "ts": 0, "pid": 1,
             "tid": 1},
            {"name": "a", "ph": "i", "s": "t", "ts": 5, "pid": 1,
             "tid": 1},
            {"name": "b", "ph": "i", "s": "t", "ts": 2, "pid": 1,
             "tid": 1},
        ]}
        assert any("<" in p for p in validate_trace(doc))

    def test_no_trace_events_key(self):
        assert validate_trace({}) == ["document has no traceEvents array"]


class TestWriteTrace:
    def test_write_and_reload(self, tmp_path):
        _, events = _instrumented_run()
        out = tmp_path / "trace.json"
        count = write_trace(events, out)
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == count
        assert validate_trace(doc) == []
        assert doc["otherData"]["trace_ids"]


class TestBatchTraceEndToEnd:
    """The acceptance scenario: a pooled batch run's exported trace."""

    def test_batch_run_trace_schema_and_linkage(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        assert main(["bench", "objdump-2018-6323", "matrixssl-2014-1569",
                     "--parallel", "2",
                     "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        doc = json.loads(trace_path.read_text())
        assert validate_trace(doc) == []

        xs = [r for r in doc["traceEvents"] if r["ph"] == "X"]
        pids = {r["pid"] for r in xs}
        assert len(pids) >= 2            # parent + at least one worker
        metas = {r["pid"] for r in doc["traceEvents"] if r["ph"] == "M"}
        assert pids <= metas             # every worker has a named track

        # every span shares the run's trace id
        trace_ids = {r["args"]["trace_id"] for r in xs
                     if "trace_id" in r.get("args", {})}
        assert len(trace_ids) == 1

        # workers' spans link to a parent span from ANOTHER process
        by_id = {r["args"]["span_id"]: r for r in xs
                 if "span_id" in r.get("args", {})}
        cross = [r for r in xs
                 if r.get("args", {}).get("parent_id") in by_id
                 and by_id[r["args"]["parent_id"]]["pid"] != r["pid"]]
        assert cross, "no span linked across the process boundary"
        for r in cross:
            parent = by_id[r["args"]["parent_id"]]
            assert r["name"] == "reconstruct.run"
            assert parent["name"] == "parallel.batch"
            # aligned clocks: the worker span starts after its parent
            assert r["ts"] >= parent["ts"]
