"""DiskSolverCache: persistence, cross-handle sharing, exact lookups.

The property tests pin what the disk tier may serve: an entry answers
its own digest set and nothing else, so a poisoned or mismatched entry
is never served for a different key, and a poisoned *model* never
comes back from ``solve`` (the solver re-verifies models before reuse).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.solver import (DiskSolverCache, Solver, SolverCache,
                          term_digest)
from repro.solver import terms as T
from repro.solver.diskcache import MAX_MODEL_SCAN


@pytest.fixture(autouse=True)
def fresh_terms():
    with T.term_scope():
        yield


def _c(name, value):
    return T.cmp("eq", T.var(name), T.const(value), 8)


class TestDiskStore:
    def test_roundtrip_across_handles(self, tmp_path):
        first = DiskSolverCache(tmp_path)
        first.store(["d1", "d2"], True, model={"a": 5})
        second = DiskSolverCache(tmp_path)  # fresh handle, same file
        assert second.lookup(["d2", "d1"]) == (True, {"a": 5})

    def test_refresh_sees_other_writers(self, tmp_path):
        reader = DiskSolverCache(tmp_path)
        writer = DiskSolverCache(tmp_path)
        assert reader.lookup(["x"]) is None
        writer.store(["x"], False)
        assert reader.lookup(["x"]) == (False, None)

    def test_disjoint_keys_not_served(self, tmp_path):
        # the poisoned-cache property: results keyed on other constraint
        # sets must not leak to other queries
        cache = DiskSolverCache(tmp_path)
        cache.store(["d1", "d2"], False)
        cache.store(["d9"], True, model={"a": 1})
        assert cache.lookup(["d1", "d3"]) is None
        assert cache.lookup(["d2"]) is None

    def test_corrupt_lines_skipped(self, tmp_path):
        cache = DiskSolverCache(tmp_path)
        cache.store(["d1"], True)
        with open(cache.path, "a", encoding="utf-8") as fh:
            fh.write("{not json}\n")
            fh.write(json.dumps({"k": ["d2"], "f": False}) + "\n")
        fresh = DiskSolverCache(tmp_path)
        assert fresh.lookup(["d1"])[0] is True
        assert fresh.lookup(["d2"])[0] is False

    def test_malformed_entries_skipped(self, tmp_path):
        # a verdict needs a boolean "f": an entry without one (such as
        # an erase marker some older stores hold) must not read as
        # infeasible
        cache = DiskSolverCache(tmp_path)
        cache.store(["d1"], True)
        with open(cache.path, "a", encoding="utf-8") as fh:
            for entry in ({"k": ["d1"], "x": True}, {"k": ["d2"], "x": True},
                          {"k": ["d3"], "f": 1}, {"k": [], "f": False},
                          {"k": ["d4"], "f": True, "m": {"a": "x"}}, [1], 7):
                fh.write(json.dumps(entry) + "\n")
        fresh = DiskSolverCache(tmp_path)
        assert fresh.lookup(["d1"]) == (True, None)
        for key in ("d2", "d3", "d4"):
            assert fresh.lookup([key]) is None
        assert len(fresh) == 1

    def test_model_returned_for_newest_entries_only(self, tmp_path):
        cache = DiskSolverCache(tmp_path)
        for i in range(MAX_MODEL_SCAN + 1):
            cache.store([f"k{i}"], True, model={"a": i})
        for handle in (cache, DiskSolverCache(tmp_path)):
            assert handle.lookup(["k0"]) == (True, None)
            assert handle.lookup(["k1"]) == (True, {"a": 1})
            assert handle.lookup([f"k{MAX_MODEL_SCAN}"]) == \
                (True, {"a": MAX_MODEL_SCAN})

    def test_torn_tail_tolerated(self, tmp_path):
        cache = DiskSolverCache(tmp_path)
        cache.store(["d1"], True)
        with open(cache.path, "a", encoding="utf-8") as fh:
            fh.write('{"k": ["d3"], "f": true')  # no newline: torn write
        fresh = DiskSolverCache(tmp_path)
        assert fresh.lookup(["d1"])[0] is True
        assert fresh.lookup(["d3"]) is None

    def test_empty_key_ignored(self, tmp_path):
        cache = DiskSolverCache(tmp_path)
        cache.store([], True)
        assert len(cache) == 0
        assert cache.lookup([]) is None

    def test_stats_shape(self, tmp_path):
        cache = DiskSolverCache(tmp_path)
        cache.store(["d1"], True)
        cache.lookup(["d1"])
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["hits"] == 1
        assert stats["appended"] == 1

    def test_lock_waits_recorded(self, tmp_path):
        # the "cache lock wait" row of `repro stats` reads this
        # histogram: one sample per lock taken
        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            DiskSolverCache(tmp_path).store(["d1"], True)  # exclusive
            DiskSolverCache(tmp_path)  # shared, to read the new line
        waits = registry.snapshot()["histograms"][
            "solver.diskcache.lock_wait_seconds"]
        assert waits["count"] == 2

    def test_hits_split_per_tier(self, tmp_path):
        # regression: one folded `hits` counter misattributed the
        # disk tier's answers in `repro stats`; verdicts and
        # enumerations count apart and `hits` is their sum
        cache = DiskSolverCache(tmp_path)
        cache.store(["d1"], False)
        cache.store_values(["d2"], "t", 4, [1], True, None,
                           [{"a": 1}])
        assert cache.lookup(["d1"]) == (False, None)
        assert cache.lookup(["d1", "dx"]) is None
        assert cache.lookup_values(["d2"], "t", 4) is not None
        stats = cache.stats()
        assert stats["hits_exact"] == 1
        assert stats["hits_values"] == 1
        assert stats["hits"] == 2 and cache.hits == 2


class TestTwoWriters:
    """Concurrent handles appending to one file must absorb each other.

    The regression pinned here: ``store`` used to jump its read offset
    to end-of-file after appending, silently skipping every line other
    handles had written since the last refresh — ``refresh`` then
    early-returned forever (file size <= offset), so those entries were
    lost to this handle for its whole lifetime.
    """

    def _lines(self, cache):
        with open(cache.path, encoding="utf-8") as fh:
            return fh.read().splitlines()

    def test_store_absorbs_other_writers_appends(self, tmp_path):
        a = DiskSolverCache(tmp_path)
        b = DiskSolverCache(tmp_path)  # offset 0, file empty
        a.store(["k1"], True, model={"x": 1})
        b.store(["k2"], False)  # must index k1 while holding the lock
        assert b.lookup(["k1"]) == (True, {"x": 1})
        assert a.lookup(["k2"]) == (False, None)
        assert len(self._lines(a)) == 2

    def test_interleaved_writers_converge(self, tmp_path):
        a = DiskSolverCache(tmp_path)
        b = DiskSolverCache(tmp_path)
        for i in range(6):
            writer = a if i % 2 == 0 else b
            writer.store([f"k{i}"], i % 3 != 0)
        for handle in (a, b):
            for i in range(6):
                assert handle.lookup([f"k{i}"]) == (i % 3 != 0, None)
        assert len(self._lines(a)) == 6
        assert a.appended == b.appended == 3

    def test_duplicate_store_after_absorb_skips_append(self, tmp_path):
        a = DiskSolverCache(tmp_path)
        b = DiskSolverCache(tmp_path)
        a.store(["dup"], True)
        b.store(["dup"], True)  # absorbed under the lock: no second line
        assert b.appended == 0
        assert len(self._lines(a)) == 1
        assert b.lookup(["dup"]) == (True, None)


class TestTornTailAppend:
    """Appending past a crashed writer's torn fragment.

    Regression (two bugs in one append path): the fragment and the new
    line used to concatenate into a single corrupt line — losing the
    entry on disk for every other handle — and because the writer's
    read offset could not advance past the fragment, its own entry was
    absorbed locally *and* re-absorbed from disk on a later refresh,
    indexing it twice and double-counting stats.  The append path now
    terminates the fragment with a newline first (the entry stays
    parseable on its own) and remembers its own line so the eventual
    re-read of that region skips it.
    """

    def _torn(self, cache, fragment='{"k": ["torn"], "f": fal'):
        with open(cache.path, "a", encoding="utf-8") as fh:
            fh.write(fragment)  # a crashed writer's partial line

    def test_entry_durable_past_torn_fragment(self, tmp_path):
        a = DiskSolverCache(tmp_path)
        b = DiskSolverCache(tmp_path)
        a.store(["k0"], True)
        self._torn(a)
        b.store(["k1"], False)  # second writer appends past the tear
        fresh = DiskSolverCache(tmp_path)
        assert fresh.lookup(["k0"])[0] is True
        assert fresh.lookup(["k1"]) == (False, None)
        assert fresh.lookup(["torn"]) is None

    def test_no_double_indexing_after_refresh(self, tmp_path):
        a = DiskSolverCache(tmp_path)
        a.store(["k0"], False)
        self._torn(a)
        a.store(["k1"], False)
        assert a.stats()["entries"] == 2
        assert a.refresh() == 0  # used to re-absorb k1
        assert a.refresh() == 0
        stats = a.stats()
        assert stats["entries"] == 2
        assert a.appended == 2

    def test_model_window_not_double_filled(self, tmp_path):
        a = DiskSolverCache(tmp_path)
        b = DiskSolverCache(tmp_path)
        a.store(["k0"], True, model={"x": 1})
        self._torn(b, '{"k": ["t1"], "f"')
        b.store(["k1"], True, model={"y": 2})
        b.refresh()
        a.refresh()
        for handle in (a, b):
            assert handle.stats()["models"] == 2


class TestPersistentTier:
    def test_fresh_session_warm_starts_from_disk(self, tmp_path):
        cs = [_c("a", 5)]
        cold = SolverCache(persistent=DiskSolverCache(tmp_path))
        assert Solver(cache=cold).is_feasible(cs)
        assert cold.disk_hits == 0
        warm = SolverCache(persistent=DiskSolverCache(tmp_path))
        assert Solver(cache=warm).is_feasible(cs)
        assert warm.disk_hits >= 1
        assert warm.misses == 0

    def test_solve_reuses_verified_disk_model(self, tmp_path):
        cs = [_c("a", 5), _c("b", 7)]
        cold = SolverCache(persistent=DiskSolverCache(tmp_path))
        first = Solver(cache=cold).solve(cs)
        warm = SolverCache(persistent=DiskSolverCache(tmp_path))
        second = Solver(cache=warm).solve(cs)
        assert second.assignment == first.assignment
        assert warm.subsumption_hits + warm.disk_hits >= 1

    def test_exact_disk_model_is_not_a_subsumption_hit(self, tmp_path):
        # regression: solve counted every verified cached model as a
        # subsumption hit, exact disk answers included
        cs = [_c("a", 5), _c("b", 7)]
        digests = sorted(term_digest(c) for c in cs)
        DiskSolverCache(tmp_path).store(digests, True,
                                        model={"a": 5, "b": 7})
        registry = telemetry.Telemetry()
        cache = SolverCache(persistent=DiskSolverCache(tmp_path))
        with telemetry.scoped(registry):
            model = Solver(cache=cache).solve(cs)
        assert model.assignment == {"a": 5, "b": 7}
        counters = registry.snapshot()["counters"]
        assert counters.get("solver.cache.disk_hits_exact") == 1
        assert counters.get("solver.cache.subsumption_hits", 0) == 0
        assert cache.subsumption_hits == 0

    def test_poisoned_model_not_returned_by_solve(self, tmp_path):
        # a cache file claiming a *wrong* model must not poison solve:
        # the model fails re-verification and the search runs instead
        cs = [_c("a", 5)]
        digests = sorted(term_digest(c) for c in cs)
        disk = DiskSolverCache(tmp_path)
        disk.store(digests, True, model={"a": 99})
        cache = SolverCache(persistent=DiskSolverCache(tmp_path))
        model = Solver(cache=cache).solve(cs)
        assert model["a"] == 5


DIGEST = st.sampled_from([f"d{i}" for i in range(8)])
KEY = st.frozensets(DIGEST, min_size=1, max_size=5)


class TestSubsumptionProperties:
    @settings(max_examples=60, deadline=None)
    @given(stored=KEY, query=KEY)
    def test_infeasible_served_for_its_own_key_only(self, tmp_path_factory,
                                                    stored, query):
        cache = DiskSolverCache(tmp_path_factory.mktemp("dc"))
        cache.store(stored, False)
        found = cache.lookup(query)
        if query == stored:
            assert found == (False, None)
        else:
            assert found is None  # wrong answers never served

    @settings(max_examples=60, deadline=None)
    @given(stored=KEY, query=KEY)
    def test_model_served_for_its_own_key_only(self, tmp_path_factory,
                                               stored, query):
        cache = DiskSolverCache(tmp_path_factory.mktemp("dc"))
        cache.store(stored, True, model={"a": 1})
        found = cache.lookup(query)
        if query == stored:
            assert found == (True, {"a": 1})
        else:
            assert found is None

    @settings(max_examples=30, deadline=None)
    @given(values=st.dictionaries(st.sampled_from(["a", "b", "c"]),
                                  st.integers(0, 255),
                                  min_size=1, max_size=3),
           extra=st.sampled_from(["a", "b", "c"]))
    def test_superset_model_satisfies_subset_query(self, values, extra):
        # solve the full random conjunction, then ask about any subset:
        # the recorded superset model must answer it feasibly
        with T.term_scope():
            cache = SolverCache()
            solver = Solver(cache=cache)
            full = [_c(name, v) for name, v in sorted(values.items())]
            solver.solve(full)
            subset = [c for c in full if extra not in c.free_vars()]
            if subset and len(subset) < len(full):
                assert solver.is_feasible(subset)
                assert cache.subsumption_hits + cache.model_probe_hits >= 1


class TestEnumerationPersistence:
    """``feasible_values`` results survive sessions — after re-proof.

    Enumerations persist with one witness model per value; a fresh
    session re-verifies every witness against its live constraints
    before serving the enumeration, so a poisoned file degrades to a
    cache miss (the enumeration loop runs), never to injected values.
    """

    CS = staticmethod(lambda: [T.cmp("ult", T.var("a"), T.const(3), 8)])

    def test_roundtrip_across_sessions(self, tmp_path):
        cs, term = self.CS(), T.var("a")
        cold = SolverCache(persistent=DiskSolverCache(tmp_path))
        first = Solver(cache=cold).feasible_values(term, cs, limit=8)
        assert first.complete and sorted(first) == [0, 1, 2]
        warm = SolverCache(persistent=DiskSolverCache(tmp_path))
        second = Solver(cache=warm).feasible_values(term, cs, limit=8)
        assert (list(second), second.complete) == (list(first), True)
        assert warm.disk_hits >= 1

    def test_unevaluable_truncation_never_persisted(self, tmp_path):
        cs, term = self.CS(), T.var("a")
        cache = SolverCache(persistent=DiskSolverCache(tmp_path))
        from repro.solver import ValueEnumeration
        cache.store_values(term, SolverCache.key(cs), 8,
                           ValueEnumeration([1], complete=False,
                                            truncated_reason="unevaluable"),
                           witnesses=[{"a": 1}])
        assert cache.lookup_values_persistent(
            term, SolverCache.key(cs), 8) is None

    def test_poisoned_values_not_served(self, tmp_path):
        # a file claiming an extra (infeasible) value fails witness
        # re-verification wholesale and the loop re-enumerates
        cs, term = self.CS(), T.var("a")
        scratch = SolverCache()
        key = SolverCache.key(cs)
        disk = DiskSolverCache(tmp_path)
        disk.store_values(scratch.digest_key(key),
                          scratch.term_digest(term), 8,
                          [0, 1, 2, 99], True, None,
                          [{"a": 0}, {"a": 1}, {"a": 2}, {"a": 99}])
        cache = SolverCache(persistent=DiskSolverCache(tmp_path))
        result = Solver(cache=cache).feasible_values(term, cs, limit=8)
        assert 99 not in result
        assert sorted(result) == [0, 1, 2]
        assert cache.disk_hits == 0

    def test_witness_value_mismatch_rejected(self, tmp_path):
        # witnesses satisfy the constraints but the term evaluates to a
        # different value than the file claims -> still rejected
        cs, term = self.CS(), T.var("a")
        scratch = SolverCache()
        key = SolverCache.key(cs)
        disk = DiskSolverCache(tmp_path)
        disk.store_values(scratch.digest_key(key),
                          scratch.term_digest(term), 8,
                          [0, 7], True, None, [{"a": 0}, {"a": 1}])
        cache = SolverCache(persistent=DiskSolverCache(tmp_path))
        result = Solver(cache=cache).feasible_values(term, cs, limit=8)
        assert sorted(result) == [0, 1, 2]


class TestWriteNormalization:
    """Writers normalize exactly as readers do.

    Regression: ``store``/``store_values`` used to index witness-model
    and model keys as passed, while the JSONL replay path applies
    ``str()`` to every key — so a non-string term name made the local
    index diverge from what a fresh handle (or the writer itself after
    a refresh) reads back from disk.
    """

    def test_model_keys_roundtrip_nonstring(self, tmp_path):
        writer = DiskSolverCache(tmp_path)
        writer.store(["d1"], True, model={1: 7, "b": 2})
        local = writer.lookup(["d1"])
        fresh = DiskSolverCache(tmp_path).lookup(["d1"])
        assert local == fresh
        assert fresh[1] == {"1": 7, "b": 2}

    def test_witness_keys_roundtrip_nonstring(self, tmp_path):
        writer = DiskSolverCache(tmp_path)
        writer.store_values(["d1"], "t1", 8, [5], True, None, [{1: 5}])
        local = writer.lookup_values(["d1"], "t1", 8)
        fresh = DiskSolverCache(tmp_path).lookup_values(["d1"], "t1", 8)
        assert local == fresh
        values, complete, reason, witnesses = fresh
        assert witnesses == [{"1": 5}]

    def test_nonstring_term_digest_roundtrip(self, tmp_path):
        # a digest that is accidentally an int must hit the same index
        # locally as after a replay (JSON stores it as a string)
        writer = DiskSolverCache(tmp_path)
        writer.store_values(["d1"], 42, 8, [1], True, None, [{"a": 1}])
        assert writer.lookup_values(["d1"], 42, 8) is not None
        assert writer.lookup_values(["d1"], "42", 8) is not None
        fresh = DiskSolverCache(tmp_path)
        assert fresh.lookup_values(["d1"], 42, 8) \
            == writer.lookup_values(["d1"], "42", 8)
