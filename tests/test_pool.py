"""The persistent generation-tagged worker pool (repro.parallel)."""

import os

import pytest

from repro import telemetry
from repro.parallel import (WorkerPool, close_pool, get_pool,
                            in_pool_worker, private_pool)


def _double(x):
    return x * 2


def _pid(_):
    return os.getpid()


def _boom(_):
    raise ValueError("intentional task failure")


def _report_in_pool(_):
    return in_pool_worker()


def _run_all(job, n):
    """Collect ``n`` results keyed by task id."""
    out = {}
    while len(out) < n:
        kind, task_id, body = job.next_message()
        out[task_id] = (kind, body)
    return out


class TestWorkerPool:
    def test_lazy_spawn(self):
        pool = WorkerPool(2)
        try:
            assert not pool.alive
            assert pool.pids() == []
            assert pool.spinups == 0
        finally:
            pool.close()

    def test_round_trip_and_generation_reuse(self):
        pool = WorkerPool(2)
        try:
            job = pool.begin_job()
            for i in range(4):
                job.submit(_double, i)
            results = _run_all(job, 4)
            job.finish()
            assert {k: v for k, (_, v) in results.items()} == \
                {0: 0, 1: 2, 2: 4, 3: 6}
            pids_before = sorted(pool.pids())
            assert pool.spinups == 1

            # second job: same processes, new generation, no respawn
            job = pool.begin_job()
            job.submit(_double, 21)
            results = _run_all(job, 1)
            job.finish()
            assert results[0] == ("done", 42)
            assert sorted(pool.pids()) == pids_before
            assert pool.spinups == 1
            assert pool.jobs == 2
        finally:
            pool.close()

    def test_tasks_fan_out_across_workers(self):
        pool = WorkerPool(2)
        try:
            job = pool.begin_job()
            for i in range(8):
                job.submit(_pid, i)
            results = _run_all(job, 8)
            job.finish()
            seen_pids = {v for _, v in results.values()}
            assert seen_pids <= set(pool.pids())
        finally:
            pool.close()

    def test_error_surfaces_without_killing_the_pool(self):
        pool = WorkerPool(1)
        try:
            job = pool.begin_job()
            job.submit(_boom, None)
            results = _run_all(job, 1)
            job.finish()
            kind, body = results[0]
            assert kind == "err"
            assert "intentional task failure" in body
            assert pool.alive  # the worker caught it and kept running

            job = pool.begin_job()
            job.submit(_double, 3)
            assert _run_all(job, 1)[0] == ("done", 6)
            job.finish()
        finally:
            pool.close()

    def test_single_active_job_enforced(self):
        pool = WorkerPool(1)
        try:
            job = pool.begin_job()
            with pytest.raises(RuntimeError, match="active job"):
                pool.begin_job()
            job.finish()
            pool.begin_job().finish()  # released after finish
        finally:
            pool.close()

    def test_idle_reap_and_respawn(self):
        pool = WorkerPool(1, idle_reap_seconds=60.0)
        try:
            job = pool.begin_job()
            job.submit(_double, 1)
            _run_all(job, 1)
            job.finish()
            assert pool.alive
            assert not pool.maybe_reap()  # too recent
            assert pool.maybe_reap(now=pool._last_used + 61.0)
            assert not pool.alive
            assert not pool.closed

            # the next job pays a fresh spin-up, transparently
            job = pool.begin_job()
            job.submit(_double, 5)
            assert _run_all(job, 1)[0] == ("done", 10)
            job.finish()
            assert pool.spinups == 2
        finally:
            pool.close()

    def test_reap_disabled_when_threshold_none(self):
        pool = WorkerPool(1, idle_reap_seconds=None)
        try:
            job = pool.begin_job()
            job.submit(_double, 1)
            _run_all(job, 1)
            job.finish()
            assert not pool.maybe_reap(now=pool._last_used + 1e9)
            assert pool.alive
        finally:
            pool.close()

    def test_close_is_idempotent_and_final(self):
        pool = WorkerPool(1)
        job = pool.begin_job()
        job.submit(_double, 1)
        _run_all(job, 1)
        job.finish()
        pool.close()
        assert not pool.alive
        pool.close()  # no-op
        with pytest.raises(RuntimeError, match="closed"):
            pool.begin_job()

    def test_grow_spawns_extra_workers(self):
        pool = WorkerPool(1)
        try:
            job = pool.begin_job()
            job.submit(_double, 1)
            _run_all(job, 1)
            job.finish()
            assert len(pool.pids()) == 1
            pool.grow(2)
            assert len(pool.pids()) == 2
            pool.grow(1)  # never shrinks
            assert len(pool.pids()) == 2
        finally:
            pool.close()

    def test_spinup_telemetry(self):
        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            pool = WorkerPool(1)
            try:
                pool.begin_job().finish()
                pool.begin_job().finish()
            finally:
                pool.close()
        snap = registry.snapshot()
        assert snap["counters"]["parallel.pool.spinups"] == 1
        assert snap["counters"]["parallel.pool.generations"] == 2
        assert snap["counters"]["parallel.pool.reuses"] == 1
        assert snap["histograms"]["span.parallel.pool_spinup"]["count"] == 1


class TestPoolHelpers:
    def test_in_pool_worker_false_in_parent(self):
        assert not in_pool_worker()

    def test_in_pool_worker_true_inside_worker(self):
        with private_pool(1) as pool:
            job = pool.begin_job()
            job.submit(_report_in_pool, None)
            assert _run_all(job, 1)[0] == ("done", True)
            job.finish()

    def test_private_pool_closes_on_exit(self):
        with private_pool(1) as pool:
            job = pool.begin_job()
            job.submit(_double, 2)
            assert _run_all(job, 1)[0] == ("done", 4)
            job.finish()
        assert pool.closed

    def test_get_pool_shares_and_grows(self):
        close_pool()
        try:
            first = get_pool(1)
            again = get_pool(2)
            assert again is first
            assert first.workers == 2
        finally:
            close_pool()
