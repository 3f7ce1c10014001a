"""Checkpointed gap search and order skipping against the replay oracle.

Trace recovery resumes gap-search siblings from engine checkpoints and
skips chunk orders that would repeat a recorded search.  Both change
wall time only: every driver call must return what the replay-from-
chunk-0 driver in :mod:`tests.symex.reference_gap_search` returns, with
the same stats, and leave the solver cache (both exact tiers in LRU
order, counters, models, assumption-stack facts) in the same state.
``tests/core/test_determinism.py`` checks every driver call of the 13
workloads' lossy reconstructions that way; the cases here cover what
those reconstructions do not reach: evicted prefixes, a threaded trace,
and the mechanisms' own accounting.
"""

import functools
import itertools

import pytest

from repro import telemetry
from repro.core import ExecutionReconstructor, ProductionSite, reconstructor
from repro.core.reconstructor import _recovering_driver
from repro.errors import ReconstructionError
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.solver.cache import SolverCache
from repro.symex import gaps
from repro.symex import ordering
from repro.symex.engine import GapPath, ShepherdedSymex
from repro.symex.ordering import ambiguous_groups
from repro.trace.decoder import decode
from repro.trace.degrade import degrade_trace, gap_count
from repro.trace.encoder import PTEncoder
from repro.trace.merge import merge_trace_by_timestamp
from repro.trace.ringbuffer import RingBuffer
from repro.workloads import get_workload
from tests.symex import reference_gap_search
from tests.symex.reference_gap_search import (Canon, Lockstep, cache_state,
                                              reference_recovering_driver,
                                              result_state)

#: the benchmark's lossy-trace site: 8.5 % lost TNT bits, per-CPU merge
LOSSY = dict(mapping_loss=0.085, per_cpu_buffers=True)


def lossy_reconstruction(name, driver):
    """Reconstruct ``name`` on the benchmark's lossy traces; returns the
    report, or the error text of a reconstruction that raised."""
    workload = get_workload(name)
    er = ExecutionReconstructor(workload.module(),
                                work_limit=workload.work_limit,
                                max_occurrences=workload.max_occurrences,
                                trace_recovery=True)
    er.symex_driver = driver
    site = ProductionSite(workload.failing_env, **LOSSY)
    try:
        return er.reconstruct(site)
    except ReconstructionError as exc:
        return str(exc)


@functools.lru_cache(maxsize=None)
def lossy_occurrence(name):
    """The first lossy occurrence of ``name``: (module, trace, failure,
    work limit)."""
    workload = get_workload(name)
    module = workload.module()
    occurrence = ProductionSite(workload.failing_env, **LOSSY) \
        .run_once(module)
    return (module, occurrence.trace, occurrence.failure,
            workload.work_limit)


def both_drivers(module, trace, failure, cache_factory=SolverCache,
                 **kwargs):
    """[(result, cache)] of the reference, then the checkpointed driver."""
    out = []
    for driver in (reference_recovering_driver, _recovering_driver):
        cache = cache_factory()
        out.append((driver(module, trace, failure, solver_cache=cache,
                           **kwargs), cache))
    return out


def assert_same(pair):
    canon = Canon()
    (expected, ref_cache), (got, cache) = pair
    assert result_state(got, canon) == result_state(expected, canon)
    assert cache_state(cache, canon) == cache_state(ref_cache, canon)


def cap_orders(monkeypatch, count):
    """Caps both drivers at ``count`` candidate chunk orders."""
    orders = ordering.candidate_orders

    def capped(chunks):
        return itertools.islice(orders(chunks), count)

    monkeypatch.setattr(ordering, "candidate_orders", capped)
    monkeypatch.setattr(reference_gap_search, "candidate_orders", capped)


@pytest.fixture
def few_orders(monkeypatch):
    """Four candidate orders (pbzip2-uaf has 256): enough to record, skip
    and fall back, in a fraction of the time."""
    cap_orders(monkeypatch, 4)


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts resumes and order skips that fell back to running."""
    counts = {"resume": 0, "skip": 0}
    resume_point, replay = GapPath.resume_point, gaps.SearchRecord.replay

    def spy_resume_point(self, gap, cache):
        had = gap < len(self.checkpoints) and \
            self.checkpoints[gap] is not None
        checkpoint = resume_point(self, gap, cache)
        counts["resume"] += had and checkpoint is None
        return checkpoint

    def spy_replay(self, cache):
        applied = replay(self, cache)
        counts["skip"] += not applied
        return applied

    monkeypatch.setattr(GapPath, "resume_point", spy_resume_point)
    monkeypatch.setattr(gaps.SearchRecord, "replay", spy_replay)
    return counts


class TestFallbacks:
    @pytest.mark.parametrize("max_entries, name, kind", [
        (4, "sqlite-787fa71", "resume"),
        (0, "pbzip2-uaf", "skip"),   # its one logged query is evicted
    ])
    def test_evicted_prefix_falls_back(self, monkeypatch, few_orders,
                                       fallbacks, max_entries, name, kind):
        """A shrunken exact tier evicts logged queries: resumed siblings
        and skipped orders fall back to running, and stay identical."""
        monkeypatch.setattr(reconstructor, "SolverCache", functools.partial(
            SolverCache, max_entries=max_entries))
        lockstep = Lockstep()
        lossy_reconstruction(name, lockstep)
        assert lockstep.shadow.max_entries == max_entries
        assert fallbacks[kind]


class TestResume:
    def test_siblings_resume_instead_of_replaying(self, monkeypatch):
        """Resumed attempts report their whole path but step only past
        their checkpoint."""
        module, trace, failure, work_limit = \
            lossy_occurrence("libpng-2004-0597")
        resumed, stepped, reported = [], [], []
        resume, step = ShepherdedSymex._resume_run, ShepherdedSymex._step
        publish = ShepherdedSymex._publish_stats

        def spy_resume(self, cp):
            resumed.append(cp.instrs)
            return resume(self, cp)

        def spy_step(self, thread):
            stepped.append(1)
            return step(self, thread)

        def spy_publish(self, result):
            reported.append(result.stats.instrs_executed)
            return publish(self, result)

        monkeypatch.setattr(ShepherdedSymex, "_resume_run", spy_resume)
        monkeypatch.setattr(ShepherdedSymex, "_step", spy_step)
        monkeypatch.setattr(ShepherdedSymex, "_publish_stats", spy_publish)
        result = _recovering_driver(module, trace, failure,
                                    solver_cache=SolverCache(),
                                    work_limit=work_limit)
        assert result.gap_attempts == len(reported) > 1
        assert len(resumed) == result.gap_attempts - 1
        assert len(stepped) == sum(reported) - sum(resumed)

    @pytest.mark.parametrize("name", ["libpng-2004-0597", "sqlite-7be932d"])
    def test_resumed_attempts_count_what_replays_count(self, monkeypatch,
                                                       name):
        """Every attempt of the checkpointed search reports the
        ``exec_counts`` (of its result and of its stall) that the same
        attempt run from chunk 0 reports, resumed ones included: steps
        are counted per block and folded in at checkpoints, stalls and
        results."""
        module, trace, failure, work_limit = lossy_occurrence(name)
        counts = []
        run = ShepherdedSymex.run

        def spy(self):
            result = run(self)
            counts.append((self.resume is not None, result.status,
                           result.exec_counts,
                           result.stall and result.stall.exec_counts))
            return result

        monkeypatch.setattr(ShepherdedSymex, "run", spy)
        for driver in (reference_recovering_driver, _recovering_driver):
            driver(module, trace, failure, solver_cache=SolverCache(),
                   work_limit=work_limit)
        half = len(counts) // 2
        replayed, checkpointed = counts[:half], counts[half:]
        assert any(resumed for resumed, *_ in checkpointed)
        assert [c[1:] for c in checkpointed] == [c[1:] for c in replayed]
        assert all(sum(c[2].values()) for c in checkpointed)

    def test_continue_on_stall_takes_no_checkpoints(self, monkeypatch):
        module, trace, failure, work_limit = \
            lossy_occurrence("libpng-2004-0597")
        paths = []
        run = ShepherdedSymex.run

        def spy(self):
            paths.append(self.path)
            return run(self)

        monkeypatch.setattr(ShepherdedSymex, "run", spy)
        gaps.replay_with_gap_recovery(module, trace, failure,
                                      work_limit=work_limit,
                                      continue_on_stall=True)
        assert paths and all(path is None for path in paths)


class TestOrderSkipping:
    @staticmethod
    def _spy_searches(monkeypatch):
        searches = []
        search = gaps.replay_with_gap_recovery

        def spy(*args, **kwargs):
            searches.append(kwargs.get("record"))
            return search(*args, **kwargs)

        monkeypatch.setattr(gaps, "replay_with_gap_recovery", spy)
        return searches

    def test_pbzip2_skips_every_order_after_the_first(self, monkeypatch):
        """All 256 orders diverge at chunk 53 and first differ at chunk
        61: one search runs and the other 255 orders are bookkeeping.
        The last order's outcome carries its replay's stats
        (``tests/core/test_determinism.py`` checks them against the
        oracle's)."""
        module, trace, failure, work_limit = lossy_occurrence("pbzip2-uaf")
        searches = self._spy_searches(monkeypatch)
        cache = SolverCache()
        got = _recovering_driver(module, trace, failure,
                                 work_limit=work_limit, solver_cache=cache)
        assert len(searches) == 1 and searches[0].depth == 53
        assert got.divergence_reason.endswith(
            "at main:wait:2 (after 1 gap assignments)")
        (kept, queries), = searches[0].attempts
        assert got.stats.solver_work == 0 and kept == 0
        assert got.stats.solver_calls == len(queries) > 0
        assert cache.hits >= 255 * got.stats.solver_calls

    def test_skipping_needs_a_shared_cache(self, monkeypatch, few_orders):
        """Without the caller's cache every order gets a fresh one, where
        a repeat would solve again: every order runs."""
        module, trace, failure, work_limit = lossy_occurrence("pbzip2-uaf")
        searches = self._spy_searches(monkeypatch)
        _recovering_driver(module, trace, failure, work_limit=work_limit)
        assert len(searches) == 4 and set(searches) == {None}

    def test_resumed_attempts_replayed_in_order(self, monkeypatch):
        """A skipped order replays a search whose siblings resumed from
        checkpoints with queries before them: every attempt's whole log,
        rebuilt from the kept prefixes, in order."""
        workload = get_workload("memcached-2019-11596")
        module = workload.module()
        encoder = PTEncoder(RingBuffer())
        run = Interpreter(module, workload.failing_env(1),
                          tracer=encoder).run()
        trace = merge_trace_by_timestamp(
            degrade_trace(decode(encoder.buffer), loss=0.5))
        orders = ordering.candidate_orders(trace.chunks)
        first, second = next(orders), next(orders)
        differ = next(i for i, (a, b) in enumerate(zip(first, second))
                      if a is not b)
        # every attempt diverges before the orders differ
        first[differ - 1].n_instrs += 10_000
        searches = self._spy_searches(monkeypatch)
        pair = both_drivers(module, trace, run.failure, max_attempts=16,
                            work_limit=workload.work_limit * 100)
        assert_same(pair)
        record = searches[0]
        assert len(searches) < sum(1 for _ in
                                   ordering.candidate_orders(trace.chunks))
        assert len(record.attempts) == 16 and record.depth == differ - 1
        assert any(kept and own for kept, own in record.attempts)

    def test_order_differing_at_the_divergence_runs(self, monkeypatch,
                                                    spawn_module):
        """Matching up to the chunk before the divergence is not enough:
        an order whose chunk at the divergence differs runs."""
        cap_orders(monkeypatch, 2)
        encoder = PTEncoder(RingBuffer())
        Interpreter(spawn_module, Environment({}, quantum=3),
                    tracer=encoder).run()
        trace = merge_trace_by_timestamp(decode(encoder.buffer))
        orders = ordering.candidate_orders(trace.chunks)
        first, second = next(orders), next(orders)
        differ = next(i for i, (a, b) in enumerate(zip(first, second))
                      if a is not b)
        # the first order diverges in the chunk the second one replaces
        first[differ].n_instrs += 10_000
        pair = both_drivers(spawn_module, trace, None)
        assert_same(pair)
        assert pair[1][0].diverged_chunk == differ + 1

    def test_threaded_trace_with_gaps(self, spawn_module):
        encoder = PTEncoder(RingBuffer())
        Interpreter(spawn_module, Environment({}, quantum=3),
                    tracer=encoder).run()
        trace = merge_trace_by_timestamp(
            degrade_trace(decode(encoder.buffer), loss=1.0))
        assert gap_count(trace) and ambiguous_groups(trace.chunks)
        # no chunk order completes: every order runs or is skipped
        trace.chunks[-1].n_instrs += 10_000
        pair = both_drivers(spawn_module, trace, None)
        assert pair[0][0].status == "diverged"
        assert_same(pair)


@pytest.mark.parametrize("name", ["sqlite-787fa71", "pbzip2-uaf"])
def test_telemetry_counts_replayed_hits(few_orders, name):
    """Replayed hits (resumed prefixes, skipped orders) count as hits in
    telemetry, as the replay's did."""
    module, trace, failure, work_limit = lossy_occurrence(name)
    counts = []
    for driver in (reference_recovering_driver, _recovering_driver):
        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            driver(module, trace, failure, solver_cache=SolverCache(),
                   work_limit=work_limit)
        counters = registry.snapshot()["counters"]
        counts.append((counters.get("solver.cache.hits"),
                       counters.get("solver.cache.misses")))
    assert counts[0] == counts[1] and counts[0][0]
