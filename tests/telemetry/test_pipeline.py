"""End-to-end: the instrumented ER pipeline emits a coherent stream."""

import pytest

from repro import telemetry
from repro.telemetry import (JsonlSink, MemorySink, Telemetry,
                             iteration_rows, read_jsonl, render_stats)
from repro.workloads import get_workload
from repro.core import ExecutionReconstructor, ProductionSite


@pytest.fixture(scope="module")
def run():
    """One instrumented reconstruction; shared across assertions."""
    workload = get_workload("sqlite-7be932d")
    tel = Telemetry(MemorySink())
    with telemetry.scoped(tel):
        er = ExecutionReconstructor(workload.module(),
                                    work_limit=workload.work_limit)
        report = er.reconstruct(ProductionSite(workload.failing_env))
    tel.emit_snapshot()
    return report, tel


class TestLayerCoverage:
    def test_spans_from_every_layer(self, run):
        _, tel = run
        span_names = {e["name"] for e in tel.sink.events
                      if e["type"] == "span"}
        # production, trace-decode, symex, solver, selection
        assert "production.attempt" in span_names
        assert "trace.decode" in span_names
        assert "symex.run" in span_names
        assert "solver.query" in span_names
        assert "selection.select_key_values" in span_names
        assert "reconstruct.run" in span_names

    def test_counters_from_every_layer(self, run):
        _, tel = run
        counters = tel.snapshot()["counters"]
        assert counters["production.runs"] >= 1
        assert counters["trace.decodes"] >= 1
        assert counters["trace.tnt_bits"] > 0
        assert counters["symex.runs"] >= 1
        assert counters["symex.solver_calls"] > 0
        assert counters["solver.timeouts"] >= 1      # it stalls twice
        assert counters["selection.rounds"] >= 1
        assert counters["reconstruct.successes"] == 1

    def test_solver_work_histogram_populated(self, run):
        _, tel = run
        hist = tel.snapshot()["histograms"]["solver.work_per_query"]
        assert hist["count"] > 0 and hist["max"] > 0

    def test_stats_folded_into_registry_match_report(self, run):
        report, tel = run
        counters = tel.snapshot()["counters"]
        assert counters["symex.solver_calls"] == sum(
            it.solver_calls for it in report.iterations)

    def test_iteration_events_and_phase_timeline(self, run):
        report, tel = run
        rows = iteration_rows(tel.sink.events)
        assert len(rows) == len(report.iterations) == report.occurrences
        assert rows[-1]["status"] == "completed"
        assert rows[0]["status"] == "stalled"
        assert rows[0]["recorded_bytes"] > 0
        for it in report.iterations:
            assert it.phase_seconds["production"] > 0
            assert it.phase_seconds["symex"] > 0
        timeline = report.timeline()
        assert [r["occurrence"] for r in timeline] == \
            [it.occurrence for it in report.iterations]

    def test_report_to_dict_round_trips_via_json(self, run):
        import json

        report, tel = run
        data = json.loads(json.dumps(
            report.to_dict(telemetry_snapshot=tel.snapshot())))
        assert data["success"] is True
        assert data["occurrences"] == report.occurrences
        assert len(data["iterations"]) == len(report.iterations)
        assert data["telemetry"]["counters"]["production.runs"] >= 1
        assert data["test_case"]["streams"]    # hex-encoded inputs

    def test_render_stats_produces_breakdown(self, run):
        _, tel = run
        text = render_stats(tel.sink.events)
        assert "Per-iteration cost breakdown" in text
        assert "stalled" in text and "completed" in text
        assert "Counters" in text and "Span timings" in text


class TestJsonlPipeline:
    def test_reconstruction_stream_survives_jsonl(self, tmp_path):
        workload = get_workload("nasm-2004-1287")
        path = tmp_path / "tel.jsonl"
        tel = Telemetry(JsonlSink(path))
        with telemetry.scoped(tel):
            er = ExecutionReconstructor(workload.module(),
                                        work_limit=workload.work_limit)
            report = er.reconstruct(ProductionSite(workload.failing_env))
        tel.close()
        assert report.success
        events = read_jsonl(path)
        rows = iteration_rows(events)
        assert len(rows) == report.occurrences
        assert events[-1]["type"] == "snapshot"


class TestDisabledPipeline:
    def test_null_sink_reconstruction_still_counts_metrics(self):
        workload = get_workload("nasm-2004-1287")
        tel = Telemetry()        # null sink: no events, metrics only
        with telemetry.scoped(tel):
            er = ExecutionReconstructor(workload.module(),
                                        work_limit=workload.work_limit)
            report = er.reconstruct(ProductionSite(workload.failing_env))
        assert report.success
        counters = tel.snapshot()["counters"]
        assert counters["production.runs"] >= 1
        assert counters["reconstruct.successes"] == 1
