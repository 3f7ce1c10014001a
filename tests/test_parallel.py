"""The batch reconstruction runner, its fan-out and telemetry merging."""

import json
import multiprocessing
import os
import signal
import threading

import pytest

from repro import parallel, telemetry
from repro.errors import ReproError
from repro.evaluation import table1
from repro.parallel import (BatchItem, BatchResult, fan_out, run_batch,
                            write_merged_jsonl)

#: small, fast workloads — the batch tests stay well under a second each
FAST = ["objdump-2018-6323", "matrixssl-2014-1569"]


def _square(x):
    return x * x


def _fail_on_one(x):
    if x == 1:
        raise ValueError("task 1 failed")
    return x


def _killing(get_workload, victim, parent):
    """A ``get_workload`` that SIGKILLs any worker process asking for
    ``victim``; the workers see it because they are forked."""
    def patched(name):
        if name == victim and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return get_workload(name)
    return patched


def _raised_within(seconds, call):
    """The exception ``call()`` raises (``None`` if it returns); fails
    the test if ``call`` is still running after ``seconds``."""
    raised = []

    def run():
        try:
            call()
        except BaseException as exc:  # noqa: BLE001 — handed to the test
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no result within {seconds} s"
    return raised[0] if raised else None


class TestFanOut:
    def test_results_in_input_order(self):
        args = [(n,) for n in range(7)]
        assert fan_out(_square, args, 2) == [n * n for n in range(7)]

    def test_tasks_run_in_worker_processes(self):
        pids = fan_out(os.getpid, [()] * 4, 2)
        assert os.getpid() not in pids
        assert 1 <= len(set(pids)) <= 2

    def test_task_exception_reraises(self):
        with pytest.raises(ValueError, match="task 1 failed"):
            fan_out(_fail_on_one, [(0,), (1,), (2,)], 2)

    def test_workers_joined_before_return(self):
        fan_out(_square, [(1,), (2,)], 2)
        assert multiprocessing.active_children() == []


class TestDeadWorker:
    """A worker killed mid-batch fails the call with a ReproError, fast;
    it never leaves the caller waiting."""

    def test_run_batch(self, monkeypatch):
        monkeypatch.setattr(parallel, "get_workload", _killing(
            parallel.get_workload, FAST[1], os.getpid()))
        raised = _raised_within(10, lambda: run_batch(FAST, parallel=2))
        assert isinstance(raised, ReproError), raised
        assert "batch worker died" in str(raised)

    def test_run_table1(self, monkeypatch):
        monkeypatch.setattr(table1, "get_workload", _killing(
            table1.get_workload, FAST[1], os.getpid()))
        raised = _raised_within(
            10, lambda: table1.run_table1(FAST, parallel=2))
        assert isinstance(raised, ReproError), raised
        assert "batch worker died" in str(raised)


class TestRunBatch:
    def test_serial_batch(self):
        result = run_batch(FAST, parallel=1)
        assert [i.workload for i in result.items] == FAST
        assert result.succeeded == len(FAST)
        assert all(i.error is None for i in result.items)
        assert all(i.occurrences >= 1 for i in result.items)

    def test_parallel_matches_serial(self):
        serial = run_batch(FAST, parallel=1)
        parallel = run_batch(FAST, parallel=2)
        fingerprint = lambda r: [(i.workload, i.success, i.verified,
                                  i.occurrences, i.unrelated_occurrences)
                                 for i in r.items]
        assert fingerprint(parallel) == fingerprint(serial)

    def test_merged_telemetry_sums_counters(self):
        result = run_batch(FAST, parallel=1)
        counters = result.telemetry["counters"]
        assert counters["reconstruct.runs"] == len(FAST)
        # every worker's solver traffic is visible in the merged view
        assert counters["reconstruct.successes"] == len(FAST)

    @pytest.mark.parametrize("width", [1, 2])
    def test_caller_registry_records_the_reconstructions(self, width):
        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            run_batch(["bash-108885", "objdump-2018-6323"], parallel=width)
        assert registry.snapshot()["counters"]["reconstruct.runs"] == 2

    def test_solver_cache_stats_surface(self):
        result = run_batch(FAST, parallel=1)
        stats = result.solver_cache_stats
        assert {"hits", "misses", "hit_rate"} <= set(stats)
        assert stats["misses"] >= 0

    def test_bad_workload_isolated(self):
        result = run_batch(["objdump-2018-6323", "no-such-workload"])
        good, bad = result.items
        assert good.success and good.error is None
        assert not bad.success and "no-such-workload" in bad.error
        assert result.succeeded == 1

    def test_rejects_nonpositive_parallel(self):
        with pytest.raises(ValueError):
            run_batch(FAST, parallel=0)

    def test_to_dict_round_trips_through_json(self):
        result = run_batch(FAST[:1])
        data = json.loads(json.dumps(result.to_dict()))
        assert data["total"] == 1
        assert data["items"][0]["workload"] == FAST[0]

    def test_worker_load_accounts_every_item(self):
        result = run_batch(FAST, parallel=2)
        load = result.worker_load
        assert sum(entry["tasks"] for entry in load.values()) == len(FAST)
        assert all(entry["wall_seconds"] >= 0 for entry in load.values())
        assert "worker_load" in result.to_dict()
        # every fanned-out task records its queue wait
        wait = result.overhead["parallel.queue_wait_seconds"]
        assert wait["count"] == len(FAST) and wait["total_s"] >= 0

    def test_result_telemetry_matches_callers_fold(self):
        # the batch's merged snapshot and the caller's registry fold the
        # items the same way, so `bench --telemetry` and
        # `--merged-telemetry` agree on every histogram, percentiles too
        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            result = run_batch(FAST, parallel=1)
        callers = registry.snapshot()
        histograms = result.telemetry["histograms"]
        assert "solver.work_per_query" in histograms
        for name, merged in histograms.items():
            assert callers["histograms"][name] == merged, name
        for name, value in result.telemetry["counters"].items():
            assert callers["counters"][name] == value, name


class TestMergedJsonl:
    def test_merged_log_readable_by_stats(self, tmp_path):
        result = run_batch(FAST, parallel=1, capture_events=True)
        path = tmp_path / "merged.jsonl"
        lines = write_merged_jsonl(result, path)
        events = telemetry.read_jsonl(path)
        assert len(events) == lines
        # events are tagged with their workload
        tagged = {e.get("workload") for e in events if "workload" in e}
        assert tagged == set(FAST)
        # the final snapshot carries the merged counters
        snapshot = telemetry.final_snapshot(events)
        assert snapshot["counters"]["reconstruct.runs"] == len(FAST)
        # and the human renderer accepts the stream
        assert "iter" in telemetry.render_stats(events)

    def test_no_events_without_capture(self):
        result = run_batch(FAST[:1], parallel=1)
        assert result.items[0].events == []

    def test_snapshot_seq_past_every_merged_event(self, tmp_path):
        # per-worker sequences overlap, so the merged snapshot must be
        # numbered past the *max* seen — a line count would collide —
        # and timestamped on the same registry-relative axis
        items = [
            BatchItem(workload="w1", events=[
                {"type": "event", "name": "a", "seq": 5, "ts": 1.5},
                {"type": "snapshot", "name": "telemetry.snapshot",
                 "seq": 9, "ts": 2.0, "metrics": {}},  # superseded
            ]),
            BatchItem(workload="w2", events=[
                {"type": "event", "name": "b", "seq": 7, "ts": 3.25},
            ]),
        ]
        result = BatchResult(items=items, parallelism=2,
                             wall_seconds=99.0,
                             telemetry={"counters": {"x": 1},
                                        "gauges": {}, "histograms": {}})
        path = tmp_path / "merged.jsonl"
        lines = write_merged_jsonl(result, path)
        events = telemetry.read_jsonl(path)
        assert len(events) == lines == 3
        snapshot = events[-1]
        assert snapshot["type"] == "snapshot"
        merged_seqs = [e["seq"] for e in events[:-1]]
        assert snapshot["seq"] == max(merged_seqs) + 1 == 8
        assert snapshot["ts"] == 3.25  # max event ts, not wall time
        assert snapshot["metrics"]["counters"]["x"] == 1


class TestMergeUnderSkewAndDuplicates:
    """Satellite checks: merged telemetry stays causally coherent when
    worker wall clocks disagree and when span names collide."""

    def _skewed_worker(self, ctx, skew_s):
        # a worker whose gettimeofday() is off by `skew_s` observes the
        # handoff origin shifted the other way
        shifted = telemetry.TraceContext(
            trace_id=ctx.trace_id, span_id=ctx.span_id,
            wall_origin=ctx.wall_origin - skew_s)
        sink = telemetry.MemorySink()
        return telemetry.Telemetry(sink, context=shifted), sink

    def test_lagging_clock_never_yields_negative_ts(self):
        parent = telemetry.Telemetry(telemetry.MemorySink())
        with parent.span("parallel.batch"):
            ctx = parent.trace_context()
        worker, sink = self._skewed_worker(ctx, skew_s=-3600.0)
        worker.event("tick")
        # the rebase clamps at the trace origin instead of going negative
        assert sink.events[0]["ts"] >= 0

    def test_leading_clock_shifts_but_keeps_linkage(self):
        parent_sink = telemetry.MemorySink()
        parent = telemetry.Telemetry(parent_sink)
        with parent.span("parallel.batch"):
            ctx = parent.trace_context()
        worker, sink = self._skewed_worker(ctx, skew_s=2.0)
        with worker.span("reconstruct.run"):
            pass
        span = sink.events[0]
        # skew moves the timestamp, not the causal links
        assert span["ts"] >= 2.0
        assert span["parent_id"] == ctx.span_id
        assert span["trace_id"] == parent.trace_id

    def test_duplicate_span_names_stay_distinct_in_merged_log(
            self, tmp_path):
        parent = telemetry.Telemetry(telemetry.MemorySink())
        with parent.span("parallel.batch"):
            ctx = parent.trace_context()
        sinks, snaps = [], []
        for skew in (0.0, 1.0):
            worker, sink = self._skewed_worker(ctx, skew)
            with worker.span("reconstruct.run"):
                pass
            sinks.append(sink)
            snaps.append(worker.snapshot())

        result = BatchResult(
            items=[BatchItem(workload=f"w{i}", events=sink.events)
                   for i, sink in enumerate(sinks)],
            parallelism=2, wall_seconds=0.1, telemetry=_fold(snaps))
        path = tmp_path / "merged.jsonl"
        write_merged_jsonl(result, path)
        events = telemetry.read_jsonl(path)

        spans = [e for e in events
                 if e.get("name") == "reconstruct.run"]
        assert len(spans) == 2
        # same name, distinct identities, both parented on the handoff
        assert len({s["span_id"] for s in spans}) == 2
        assert all(s["parent_id"] == ctx.span_id for s in spans)
        assert len({s["trace_id"] for s in spans}) == 1
        # the duration histograms folded rather than clobbered
        merged = telemetry.final_snapshot(events)
        assert merged["histograms"]["span.reconstruct.run"][
            "count"] == 2

    def test_merged_order_follows_rebased_timeline(self, tmp_path):
        parent = telemetry.Telemetry(telemetry.MemorySink())
        with parent.span("parallel.batch"):
            ctx = parent.trace_context()
        early, early_sink = self._skewed_worker(ctx, 0.0)
        late, late_sink = self._skewed_worker(ctx, 5.0)  # clock 5s ahead
        early.event("first")
        late.event("second")
        merged = sorted(early_sink.events + late_sink.events,
                        key=lambda e: e["ts"])
        assert [e["name"] for e in merged] == ["first", "second"]


class TestSolverCacheStats:
    def _result(self, counters):
        return BatchResult(items=[], parallelism=1, wall_seconds=0.0,
                           telemetry={"counters": counters})

    def test_hit_rate_folds_every_answered_tier(self):
        # subsumption/disk answers already ride inside `hits`; a
        # successful model probe is a miss + model_probe_hits, so the
        # folded rate is (6 + 2) / (6 + 4)
        stats = self._result({
            "solver.cache.hits": 6,
            "solver.cache.misses": 4,
            "solver.cache.model_probe_hits": 2,
            "solver.cache.subsumption_hits": 3,
            "solver.cache.disk_hits": 1,
        }).solver_cache_stats
        assert stats["hit_rate"] == 0.8
        assert stats["hits"] == 6 and stats["misses"] == 4
        assert stats["model_probe_hits"] == 2
        assert stats["subsumption_hits"] == 3
        assert stats["disk_hits"] == 1

    def test_empty_counters(self):
        stats = self._result({}).solver_cache_stats
        assert stats["hit_rate"] == 0.0


def _fold(snapshots):
    """Merge snapshots as ``run_batch`` does: one fresh registry absorbs
    them all."""
    merged = telemetry.Telemetry()
    for snapshot in snapshots:
        merged.absorb(snapshot)
    return merged.snapshot()


class TestMergeSnapshots:
    def test_counters_sum(self):
        merged = _fold([
            {"counters": {"x": 1}, "gauges": {}, "histograms": {}},
            {"counters": {"x": 2, "y": 5}, "gauges": {}, "histograms": {}},
            None,
        ])
        assert merged["counters"] == {"x": 3, "y": 5}

    def test_gauges_keep_max(self):
        merged = _fold([
            {"counters": {}, "gauges": {"g": 3}, "histograms": {}},
            {"counters": {}, "gauges": {"g": 7}, "histograms": {}},
        ])
        assert merged["gauges"]["g"] == 7

    def test_histograms_merge_exact_aggregates(self):
        h1 = {"count": 2, "sum": 10.0, "min": 1.0, "max": 9.0,
              "mean": 5.0, "p50": 5.0, "p90": 9.0, "p99": 9.0}
        h2 = {"count": 2, "sum": 6.0, "min": 2.0, "max": 4.0,
              "mean": 3.0, "p50": 3.0, "p90": 4.0, "p99": 4.0}
        merged = _fold([
            {"counters": {}, "gauges": {}, "histograms": {"h": h1}},
            {"counters": {}, "gauges": {}, "histograms": {"h": h2}},
        ])["histograms"]["h"]
        assert merged["count"] == 4
        assert merged["sum"] == 16.0
        assert merged["min"] == 1.0 and merged["max"] == 9.0
        assert merged["mean"] == 4.0

    def test_empty_input(self):
        merged = _fold([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}
