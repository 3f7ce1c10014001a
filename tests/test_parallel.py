"""The batch reconstruction runner and its telemetry merging."""

import dataclasses
import json
import queue
import re
import threading
import time

import pytest

from repro import telemetry
from repro.core import ProductionSite
from repro.ir.module import ProgramPoint
from repro.parallel import (BatchItem, BatchResult, GapShardOutcome,
                            _choose_outcome, _dfs_key, _StealControl,
                            _steal_prefixes, run_batch, shard_gap_search,
                            write_merged_jsonl)
from repro.symex.gaps import SearchCancelled, replay_with_gap_recovery
from repro.workloads import get_workload

#: small, fast workloads — the batch tests stay well under a second each
FAST = ["objdump-2018-6323", "matrixssl-2014-1569"]


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

    def test_cache_dir_shared_across_batch_runs(self, tmp_path):
        cold = run_batch(FAST[:1], parallel=1, cache_dir=str(tmp_path))
        warm = run_batch(FAST[:1], parallel=1, cache_dir=str(tmp_path))
        assert cold.succeeded == warm.succeeded == 1
        assert (tmp_path / "solver-cache.jsonl").exists()


def _degraded_occurrence(name):
    workload = get_workload(name)
    module = workload.fresh_module()
    site = ProductionSite(workload.failing_env, mapping_loss=0.085,
                          per_cpu_buffers=True)
    occurrence = site.run_once(module)
    return workload, module, occurrence


class TestShardedGapSearch:
    def test_matches_serial_on_gap_heavy_workloads(self):
        for name in FAST:
            workload, module, occ = _degraded_occurrence(name)
            kwargs = dict(work_limit=workload.work_limit * 20)
            serial = replay_with_gap_recovery(module, occ.trace,
                                              occ.failure, **kwargs)
            sharded = replay_with_gap_recovery(module, occ.trace,
                                               occ.failure, shards=2,
                                               **kwargs)
            assert sharded.status == serial.status, name
            serial_model = (serial.model.assignment
                            if serial.model else None)
            sharded_model = (sharded.model.assignment
                             if sharded.model else None)
            assert sharded_model == serial_model, name

    def test_no_gaps_degrades_to_serial(self):
        workload = get_workload(FAST[0])
        module = workload.fresh_module()
        occ = ProductionSite(workload.failing_env).run_once(module)
        kwargs = dict(max_attempts=512, work_limit=workload.work_limit)
        serial = replay_with_gap_recovery(module, occ.trace, occ.failure,
                                          **kwargs)
        result = shard_gap_search(module, occ.trace, occ.failure,
                                  shards=2, **kwargs)
        # an intact trace has no prefixes to fan out: same code path
        assert result.status == serial.status
        assert result.gap_attempts == 1

    def test_rejects_nonpositive_shards(self):
        workload, module, occ = _degraded_occurrence(FAST[0])
        with pytest.raises(ValueError, match="shards"):
            shard_gap_search(module, occ.trace, occ.failure, shards=0,
                             max_attempts=512)

    def test_subspace_histogram_accounts_every_attempt(self):
        workload, module, occ = _degraded_occurrence(FAST[0])
        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            result = replay_with_gap_recovery(
                module, occ.trace, occ.failure, shards=2,
                work_limit=workload.work_limit * 20)
        snap = registry.snapshot()
        hist = snap["histograms"]["parallel.shard_subspace_attempts"]
        # one sample per shard outcome, summing to the reported total
        assert hist["count"] == snap["counters"]["parallel.gap_shards"]
        assert hist["sum"] == result.gap_attempts

    def test_all_diverged_matches_serial(self):
        # displace the failure point one instruction: no decision vector
        # reaches it, so every subspace diverges and the sharded search
        # must report the same divergence the serial walk does
        workload, module, occ = _degraded_occurrence(FAST[0])
        pt = occ.failure.point
        wrong = dataclasses.replace(
            occ.failure, point=ProgramPoint(pt.func, pt.block,
                                            pt.index + 1))
        kwargs = dict(work_limit=workload.work_limit * 20)
        serial = replay_with_gap_recovery(module, occ.trace, wrong,
                                          **kwargs)
        sharded = replay_with_gap_recovery(module, occ.trace, wrong,
                                           shards=2, **kwargs)
        assert serial.status == sharded.status == "diverged"
        assert sharded.diverged_chunk == serial.diverged_chunk
        # the reason's base matches serial; the attempt suffix counts
        # this mode's own replays (subspace entries re-run the serial
        # walk's interior nodes, so totals legitimately differ)
        suffix = r" \(after (\d+) gap assignments\)$"
        base = lambda r: re.sub(suffix, "", r.divergence_reason)
        count = lambda r: int(re.search(suffix,
                                        r.divergence_reason).group(1))
        assert base(sharded) == base(serial)
        assert count(sharded) == sharded.gap_attempts
        assert count(serial) == serial.gap_attempts == 1

    def test_shard_counters_folded_into_caller(self):
        workload, module, occ = _degraded_occurrence(FAST[0])
        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            replay_with_gap_recovery(module, occ.trace, occ.failure,
                                     shards=2,
                                     work_limit=workload.work_limit * 20)
        counters = registry.snapshot()["counters"]
        assert counters.get("parallel.gap_shards", 0) >= 1
        # the shards' own replay traffic is visible in the parent view:
        # the parent's re-run contributes exactly one recovery/replay, so
        # a total of two or more proves the workers' counters were folded
        replays = (counters.get("symex.gap_replays", 0)
                   + counters.get("symex.gap_recoveries", 0))
        assert replays >= 2


class TestShardPrefixes:
    def _trace(self, name=FAST[0]):
        _, _, occ = _degraded_occurrence(name)
        return occ.trace

    def test_depth_bounded_by_gap_count(self):
        workload = get_workload(FAST[0])
        module = workload.fresh_module()
        occ = ProductionSite(workload.failing_env).run_once(module)
        assert _steal_prefixes(occ.trace, shards=4) == []  # no gaps

    def test_more_shards_more_tasks(self):
        trace = self._trace()
        assert len(_steal_prefixes(trace, shards=8)) >= \
            len(_steal_prefixes(trace, shards=2))

    def test_steal_prefixes_cover_pool_width_only(self):
        # stealing rebalances at runtime, so the seed fan-out stays at
        # one task per worker instead of over-partitioning
        trace = self._trace()
        assert len(_steal_prefixes(trace, shards=2)) == 2
        assert len(_steal_prefixes(trace, shards=4)) == 4

    def test_steal_prefixes_serial_dfs_order(self):
        trace = self._trace()
        prefixes = _steal_prefixes(trace, shards=4)
        assert prefixes == sorted(prefixes, key=_dfs_key)
        assert prefixes[0] == [True] * len(prefixes[0])


class TestStealControl:
    """The checkpoint hook, exercised with in-process queue doubles."""

    def _control(self, cancel=False, tokens=0):
        cancel_evt = threading.Event()
        if cancel:
            cancel_evt.set()
        steal_q, results_q = queue.Queue(), queue.Queue()
        for _ in range(tokens):
            steal_q.put((0, time.time()))
        control = _StealControl([True], cancel_evt, steal_q=steal_q,
                                results_q=results_q)
        return control, steal_q, results_q

    def test_cancel_aborts_with_attempt_count(self):
        control, _, _ = self._control(cancel=True)
        with pytest.raises(SearchCancelled) as err:
            control.checkpoint([True, False], 1, attempts=7)
        assert err.value.attempts == 7

    def test_no_token_no_change(self):
        control, _, results_q = self._control()
        locked = control.checkpoint([True, False, True], 1, 0)
        assert locked == 1
        assert results_q.empty() and control.donated == 0

    def test_donates_shallowest_unexplored_sibling(self):
        control, steal_q, results_q = self._control(tokens=1)
        locked = control.checkpoint([True, False, True, True], 1, 0)
        # first liberated True is at index 2: the thief gets its False
        # sibling, the victim locks itself out of the donated half
        assert results_q.get_nowait() == ("split", [True, False, False])
        assert locked == 3
        assert steal_q.empty() and control.donated == 1

    def test_locked_prefix_never_donated(self):
        control, _, results_q = self._control(tokens=1)
        locked = control.checkpoint([True, False], 1, 0)
        # the only True sits inside the locked prefix: nothing stealable
        assert locked == 1
        assert results_q.empty() and control.donated == 0

    def test_all_false_remainder_drops_token(self):
        control, steal_q, results_q = self._control(tokens=1)
        locked = control.checkpoint([True, False, False], 1, 0)
        assert locked == 1
        assert results_q.empty()
        assert steal_q.empty()  # consumed, not re-posted


class TestWinnerCommit:
    """Serial-DFS winner selection over shard outcomes."""

    def _outcome(self, prefix, status="diverged", gap_bits=()):
        return GapShardOutcome(prefix=list(prefix), status=status,
                               gap_bits=list(gap_bits))

    def test_dfs_key_orders_true_first(self):
        assert _dfs_key([True]) < _dfs_key([False])
        assert _dfs_key([True, False]) < _dfs_key([False, True])
        assert _dfs_key([True]) < _dfs_key([True, False])  # prefix first

    def test_earliest_solution_wins_regardless_of_arrival(self):
        late_but_early = self._outcome([True], "completed",
                                       [True, True, False])
        first_arrived = self._outcome([False], "completed",
                                      [False, True, True])
        assert _choose_outcome(
            [first_arrived, late_but_early]) is late_but_early
        assert _choose_outcome(
            [late_but_early, first_arrived]) is late_but_early

    def test_solution_beats_any_divergence(self):
        solved = self._outcome([False], "stalled", [False, True])
        diverged = self._outcome([True], "diverged", [True, True])
        assert _choose_outcome([diverged, solved]) is solved

    def test_all_diverged_commits_dfs_last_subspace(self):
        # the DFS-last subspace's final attempt is the serial search's
        # last attempt, so its divergence stands in for serial's
        first = self._outcome([True, True], gap_bits=[True, True])
        last = self._outcome([False, False], gap_bits=[False, False])
        assert _choose_outcome([last, first]) is last

    def test_cancelled_and_error_never_win(self):
        cancelled = self._outcome([True], "cancelled")
        errored = self._outcome([True, True], "error")
        diverged = self._outcome([False], "diverged", [False])
        assert _choose_outcome([cancelled, errored, diverged]) is diverged
        with pytest.raises(RuntimeError):
            _choose_outcome([cancelled, errored])


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
        with parent.span("symex.gap_shard_search"):
            ctx = parent.trace_context()
        worker, sink = self._skewed_worker(ctx, skew_s=-3600.0)
        worker.event("tick")
        # the rebase clamps at the trace origin instead of going negative
        assert sink.events[0]["ts"] >= 0

    def test_leading_clock_shifts_but_keeps_linkage(self):
        parent_sink = telemetry.MemorySink()
        parent = telemetry.Telemetry(parent_sink)
        with parent.span("symex.gap_shard_search"):
            ctx = parent.trace_context()
        worker, sink = self._skewed_worker(ctx, skew_s=2.0)
        with worker.span("parallel.shard_search"):
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
            with worker.span("parallel.shard_search", prefix_len=1):
                pass
            sinks.append(sink)
            snaps.append(worker.snapshot())

        result = BatchResult(
            items=[BatchItem(workload=f"w{i}", events=sink.events)
                   for i, sink in enumerate(sinks)],
            parallelism=2, wall_seconds=0.1,
            telemetry=telemetry.merge_snapshots(snaps))
        path = tmp_path / "merged.jsonl"
        write_merged_jsonl(result, path)
        events = telemetry.read_jsonl(path)

        spans = [e for e in events
                 if e.get("name") == "parallel.shard_search"]
        assert len(spans) == 2
        # same name, distinct identities, both parented on the handoff
        assert len({s["span_id"] for s in spans}) == 2
        assert all(s["parent_id"] == ctx.span_id for s in spans)
        assert len({s["trace_id"] for s in spans}) == 1
        # the duration histograms folded rather than clobbered
        merged = telemetry.final_snapshot(events)
        assert merged["histograms"]["span.parallel.shard_search"][
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


class TestMergeSnapshots:
    def test_counters_sum(self):
        merged = telemetry.merge_snapshots([
            {"counters": {"x": 1}, "gauges": {}, "histograms": {}},
            {"counters": {"x": 2, "y": 5}, "gauges": {}, "histograms": {}},
            None,
        ])
        assert merged["counters"] == {"x": 3, "y": 5}

    def test_gauges_keep_max(self):
        merged = telemetry.merge_snapshots([
            {"counters": {}, "gauges": {"g": 3}, "histograms": {}},
            {"counters": {}, "gauges": {"g": 7}, "histograms": {}},
        ])
        assert merged["gauges"]["g"] == 7

    def test_histograms_merge_exact_aggregates(self):
        h1 = {"count": 2, "sum": 10.0, "min": 1.0, "max": 9.0,
              "mean": 5.0, "p50": 5.0, "p90": 9.0, "p99": 9.0}
        h2 = {"count": 2, "sum": 6.0, "min": 2.0, "max": 4.0,
              "mean": 3.0, "p50": 3.0, "p90": 4.0, "p99": 4.0}
        merged = telemetry.merge_snapshots([
            {"counters": {}, "gauges": {}, "histograms": {"h": h1}},
            {"counters": {}, "gauges": {}, "histograms": {"h": h2}},
        ])["histograms"]["h"]
        assert merged["count"] == 4
        assert merged["sum"] == 16.0
        assert merged["min"] == 1.0 and merged["max"] == 9.0
        assert merged["mean"] == 4.0

    def test_empty_input(self):
        merged = telemetry.merge_snapshots([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}
