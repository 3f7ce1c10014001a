"""Self-test of the layer benchmark harness (not part of tier-1).

Run with ``python -m pytest benchmarks/layers/test_harness.py``.  One
traced round pair on two Table-1 failures checks the output schema, the
reference check and the span residual; the rest are pure unit tests.
"""

from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from layers import LAYERS  # noqa: E402

worker.import_repro()

TWO_FAILURES = ("sqlite-787fa71", "bash-108885")


def _measure(reference):
    runner = worker.SerialRunner("table1", 0, reference)
    runner.workloads = [w for w in runner.workloads
                        if w.name in TWO_FAILURES]
    # one untraced round, then one traced
    result = worker.collect(runner, rounds=1, seconds=None, traced=True,
                            trace_file=None)
    result["setup_samples"] = [0.1, 0.2, 0.3]
    return result


@pytest.fixture(scope="module")
def reference():
    return worker.load_reference(0)


@pytest.fixture(scope="module")
def traced(reference):
    return _measure(reference)


def test_report_line_schema(traced):
    untraced = run.report_line(
        dict(traced, rounds=[r for r in traced["rounds"] if not r["traced"]]),
        traced=False)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] == len(TWO_FAILURES)
    assert set(untraced["metrics"]) == set(run.TIMED)
    for name, metric in untraced["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name][0]
        assert metric["value"] > 0
    layered = run.report_line(traced, traced=True)
    assert layered["attempted"] == 2 * len(TWO_FAILURES)
    assert {name: m["unit"] for name, m in layered["metrics"].items()} \
        == run.traced_report_units()
    assert layered["metrics"]["occurrences"]["value"] == 3


def test_end_to_end_samples(traced):
    metrics = run.end_to_end(traced)
    untraced, layered = traced["rounds"]
    # only untraced rounds are probed: in a traced one the probes would
    # count as unattributed time
    assert all(p["probe_s"] > 0 for p in untraced["parts"].values())
    assert all(p["probe_s"] is None for p in layered["parts"].values())
    assert metrics["round_s"]["samples"] == [
        sum(speed.scaled(p["s"], p["probe_s"])
            for p in untraced["parts"].values())]
    assert metrics["setup_s"]["value"] == 0.2
    assert metrics["failed_frac"]["value"] == 0.0
    assert metrics["repro_p50_s"]["n"] == len(TWO_FAILURES)
    # the traced round's spans count in the process's peak
    assert "peak_rss_mb" not in metrics


def test_timed_metrics_scale_by_the_probes_and_take_part_medians():
    ref = speed.REFERENCE_S

    def round_(seconds, probe_s):
        return {"wall_s": sum(seconds.values()), "cpu_s": 0.0,
                "traced": False, "serve": None,
                "parts": {name: {"s": s, "probe_s": probe_s}
                          for name, s in seconds.items()},
                "failures": [
                    {"workload": name, "seconds": s, "probe_s": probe_s,
                     "occurrences": 1, "recorded_bytes": 1,
                     "modelled_s": 1.0, "error": None, "expected": False}
                    for name, s in seconds.items()]}

    result = {"setup_samples": [0.1], "peak_rss_mb": 30.0, "rounds": [
        round_({"a": 1.0, "b": 3.0}, ref),
        # a round on a host at half the reference speed
        round_({"a": 4.0, "b": 4.0}, 2 * ref),
        round_({"a": 1.5, "b": 2.0}, ref)]}
    metrics = run.end_to_end(result)
    # per-part medians: a 1.5 (of 1, 2, 1.5), b 2.0 (of 3, 2, 2)
    assert metrics["round_s"]["value"] == pytest.approx(3.5)
    assert metrics["round_s"]["samples"] == pytest.approx([4.0, 4.0, 3.5])
    assert metrics["repro_p50_s"]["value"] == pytest.approx(1.75)
    assert metrics["repro_p50_s"]["n"] == 6


def test_corrupted_reference_entry_counts_as_failed(reference):
    corrupted = copy.deepcopy(reference)
    corrupted["bash-108885"]["streams_sha256"] = "0" * 64
    line = run.report_line(_measure(corrupted), traced=True)
    assert line["failed"] == 2  # one per round
    assert not line["correct"]


def test_span_residual_within_bound(traced):
    assert [r["traced"] for r in traced["rounds"]] == [False, True]
    assert run.coverage_problems(traced) == []
    layers = traced["layers"]
    round_s = traced["rounds"][1]["wall_s"]
    assert abs(layers["unattributed_s"]) <= run.MAX_UNATTRIBUTED * round_s
    self_total = sum(layers[f"{name}.self_s"] for name in LAYERS)
    assert self_total > 0.9 * round_s
    cpu_total = sum(layers[f"{name}.cpu_s"] for name in LAYERS)
    assert cpu_total > 0.9 * traced["rounds"][1]["cpu_s"]


def test_coverage_problems_flags_a_cpu_gap(traced):
    gapped = copy.deepcopy(traced)
    gapped["layers"]["unattributed_cpu_s"] = gapped["rounds"][1]["cpu_s"]
    problems = run.coverage_problems(gapped)
    assert len(problems) == 1 and "unattributed_cpu_s" in problems[0]


def test_pinned_failure_counts_in_failed_frac_but_is_not_wrong():
    def record(workload, error):
        count = None if error else 1  # a raised error leaves no report
        return worker.pin("lossy-trace", {
            "workload": workload, "seconds": 1.0,
            "probe_s": speed.REFERENCE_S, "occurrences": count,
            "recorded_bytes": count, "modelled_s": count, "error": error})

    pinned = worker.EXPECTED_FAILURES[("lossy-trace", "pbzip2-uaf")]
    failures = [record("bash-108885", None),
                record("pbzip2-uaf", pinned + " at main:wait:2")]
    result = {"rounds": [{"wall_s": 2.0, "cpu_s": 2.0, "traced": False,
                          "parts": {
                              name: {"s": 1.0, "probe_s": speed.REFERENCE_S}
                              for name in ("bash-108885", "pbzip2-uaf")},
                          "failures": failures, "serve": None}],
              "setup_samples": [0.1], "peak_rss_mb": 30.0}
    line = run.report_line(result, traced=False)
    assert line["correct"] and line["failed"] == 0
    metrics = run.end_to_end(result)
    assert metrics["failed_frac"]["value"] == 0.5
    assert metrics["occurrences"]["value"] == 1
    # any other error of a pinned failure, or any error elsewhere, is wrong
    failures[1] = record("pbzip2-uaf", "ReconstructionError: timed out")
    assert run.report_line(result, traced=False)["failed"] == 1
    failures[1] = record("sqlite-787fa71", pinned)
    assert run.report_line(result, traced=False)["failed"] == 1


def test_perfetto_export(tmp_path, reference):
    from layers import LayerTracer
    from repro.telemetry.traceexport import validate_trace

    runner = worker.SerialRunner("table1", 0, reference)
    runner.workloads = [w for w in runner.workloads
                        if w.name == "sqlite-787fa71"]
    tracer = LayerTracer()
    tracer.install()
    try:
        runner.round(probe=False)
    finally:
        tracer.uninstall()
    path = tmp_path / "trace.json"
    assert tracer.write_perfetto(str(path)) > 1
    doc = json.loads(path.read_text())
    assert validate_trace(doc) == []
    names = {r["name"] for r in doc["traceEvents"] if r["ph"] == "X"}
    assert {"core.reconstructor", "symex.engine", "interp"} <= names


def test_uninstall_restores_every_entry_point():
    from layers import ENTRY_POINTS, LayerTracer
    from repro.core.reconstructor import ExecutionReconstructor

    def current():
        import importlib
        import inspect

        found = []
        for _layer, module, path, _hook in ENTRY_POINTS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            found.append(inspect.getattr_static(owner, attr))
        found.append(ExecutionReconstructor.__init__.__kwdefaults__[
            "selection"])
        return found

    before = current()
    tracer = LayerTracer()
    tracer.install()
    assert all(a is not b for a, b in zip(before, current()))
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, current()))


@pytest.mark.parametrize("base, new, bound, expected", [
    ([1.0, 1.01, 0.99], [1.02, 1.03, 1.01], 0.10, "ok"),
    ([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], 0.10, "regressed"),
    ([1.0, 1.5, 0.6], [1.2, 1.21, 1.19], 0.10, "unresolved"),
    ([1.0, 1.5, 0.6], [0.5, 0.51, 0.49], 0.10, "ok"),
    ([35, 35], [36, 36], 0.0, "regressed"),
    ([0.0, 0.0], [0.0, 0.0], 0.0, "ok"),
])
def test_verdict(base, new, bound, expected):
    import statistics

    def metric(samples):
        return {"value": statistics.median(samples), "samples": samples}
    assert run.verdict(metric(base), metric(new), bound) == expected


def test_benchmark_json_matches_the_harness():
    doc = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmarks/layers"]
    assert [w["name"] for w in doc["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: (m["unit"], m["bound"]) for m in doc["end_to_end"]} \
        == {name: run.END_TO_END[name] for name in run.TIMED}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} \
        == run.traced_report_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "layers",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/layers/run.py", "--workload", "table1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
