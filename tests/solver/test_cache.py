"""SolverCache: memoization, model probing, warm starts, enumeration."""

import pytest

from repro import telemetry
from repro.errors import SolverTimeout
from repro.solver import (Solver, SolverCache, UnlimitedBudget,
                          ValueEnumeration)
from repro.solver import terms as T
from repro.solver.cache import ProvenModel


@pytest.fixture(autouse=True)
def fresh_terms():
    with T.term_scope():
        yield


@pytest.fixture
def tel():
    registry = telemetry.Telemetry()
    with telemetry.scoped(registry):
        yield registry


def _c(name, value):
    return T.cmp("eq", T.var(name), T.const(value), 8)


class TestCacheUnit:
    def test_key_erases_order_and_duplicates(self):
        a, b = _c("a", 1), _c("b", 2)
        assert SolverCache.key([a, b]) == SolverCache.key([b, a, a])

    def test_feasible_roundtrip_counts(self):
        cache = SolverCache()
        key = SolverCache.key([_c("a", 1)])
        assert cache.lookup_feasible(key) is None
        cache.store_feasible(key, True)
        assert cache.lookup_feasible(key) is True
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction(self):
        cache = SolverCache(max_entries=2)
        keys = [SolverCache.key([_c("a", v)]) for v in range(3)]
        for key in keys:
            cache.store_feasible(key, True)
        assert cache.lookup_feasible(keys[0]) is None  # evicted
        assert cache.lookup_feasible(keys[2]) is True

    def test_models_dedup_and_order(self):
        cache = SolverCache()
        cache.record_model({"a": 1})
        cache.record_model({"a": 1})
        cache.record_model({"a": 2})
        assert cache.recent_models() == [{"a": 2}, {"a": 1}]
        assert cache.hints() == {"a": 2}
        # probes keep their proofs on the recorded models; hints are a
        # plain copy
        assert all(isinstance(m, ProvenModel)
                   for m in cache.recent_models())
        assert type(cache.hints()) is dict

    def test_model_window_bounded(self):
        cache = SolverCache(max_models=2)
        for v in range(5):
            cache.record_model({"a": v})
        assert len(cache.recent_models()) == 2

    def test_stats_shape(self):
        cache = SolverCache()
        stats = cache.stats()
        assert {"hits", "misses", "hit_rate"} <= set(stats)


class TestValueEnumeration:
    def test_is_still_a_list(self):
        values = ValueEnumeration([1, 2], complete=True)
        assert values == [1, 2]
        assert sorted(values) == [1, 2]

    def test_partial_flags(self):
        values = ValueEnumeration([1], truncated_reason="limit")
        assert not values.complete
        assert values.truncated_reason == "limit"
        assert "partial" in repr(values)


class TestSolverIntegration:
    def test_repeat_query_hits(self, tel):
        solver = Solver(cache=SolverCache())
        cs = [_c("a", 5)]
        assert solver.is_feasible(cs)
        assert solver.is_feasible(cs)
        assert tel.counter("solver.cache.hits").value == 1
        assert tel.counter("solver.cache.misses").value == 1

    def test_normalized_key_hits_across_orderings(self, tel):
        solver = Solver(cache=SolverCache())
        a, b = _c("a", 5), _c("b", 6)
        assert solver.is_feasible([a, b])
        assert solver.is_feasible([b, a, a])   # same normalized key
        assert tel.counter("solver.cache.hits").value == 1

    def test_infeasible_cached_too(self, tel):
        solver = Solver(cache=SolverCache())
        cs = [_c("a", 1), _c("a", 2)]
        assert not solver.is_feasible(cs)
        assert not solver.is_feasible(cs)
        assert tel.counter("solver.cache.hits").value == 1

    def test_model_probe_answers_weaker_query(self, tel):
        cache = SolverCache()
        solver = Solver(cache=cache)
        solver.solve([_c("a", 5)])             # records the model a=5
        grown = [_c("a", 5), T.cmp("ult", T.var("a"), T.const(10), 8)]
        assert solver.is_feasible(grown)       # model satisfies it
        assert cache.model_probe_hits == 1
        assert tel.counter("solver.cache.model_probe_hits").value == 1
        # and the probe result was stored: the retry is an exact hit
        assert solver.is_feasible(grown)
        assert tel.counter("solver.cache.hits").value == 1

    def test_warm_start_reuses_last_model(self):
        cache = SolverCache()
        solver = Solver(cache=cache)
        first = solver.solve([T.cmp("ugt", T.var("a"), T.const(40), 8),
                              T.cmp("ult", T.var("a"), T.const(50), 8)])
        second = solver.solve([T.cmp("ugt", T.var("a"), T.const(40), 8)])
        # the weaker query starts from the previous model, so it keeps it
        assert second["a"] == first["a"]

    def test_timeouts_never_cached(self, tel):
        arr = T.array("A", bytes(2048))
        node = arr
        for i in range(150):
            node = T.store(node, T.binop("add", T.var("x"), T.const(i)),
                           T.var("v"))
        cs = [T.cmp("eq", T.read(node, T.var("y")), T.const(1, 8), 8),
              T.cmp("ult", T.var("x"), T.const(200), 64)]
        solver = Solver(work_limit=500, cache=SolverCache())
        for _ in range(2):
            with pytest.raises(SolverTimeout):
                solver.is_feasible(cs)
        assert tel.counter("solver.cache.hits").value == 0
        assert tel.counter("solver.cache.misses").value == 2

    def test_uncached_solver_unchanged(self, tel):
        solver = Solver()
        assert solver.is_feasible([_c("a", 5)])
        assert solver.is_feasible([_c("a", 5)])
        assert tel.counter("solver.cache.hits").value == 0
        assert tel.counter("solver.cache.misses").value == 0


class TestFeasibleValuesEnumeration:
    def test_unconstrained_byte_enumerates_many(self):
        # regression: a term over an unconstrained byte must enumerate
        # more than one value, not silently stop at the default model
        a = T.var("a")
        values = Solver().feasible_values(a, [], limit=5)
        assert len(values) == 5 and len(set(values)) == 5
        assert not values.complete
        assert values.truncated_reason == "limit"

    def test_exhausted_set_is_complete(self):
        a = T.var("a")
        cs = [T.cmp("ult", a, T.const(3), 8)]
        values = Solver().feasible_values(a, cs, limit=10)
        assert sorted(values) == [0, 1, 2]
        assert values.complete and values.truncated_reason is None

    def test_values_cached(self, tel):
        solver = Solver(cache=SolverCache())
        a = T.var("a")
        cs = [T.cmp("ult", a, T.const(3), 8)]
        first = solver.feasible_values(a, cs, limit=10)
        second = solver.feasible_values(a, cs, limit=10)
        assert first == second and second.complete
        assert tel.counter("solver.cache.hits").value == 1

    def test_partial_counter_emitted(self, tel):
        # an out-of-bounds read leaves the term unevaluable under the
        # first model: the enumeration is cut short and says so
        arr = T.array("A", bytes(4))
        term = T.read(arr, T.var("i"))
        values = Solver().feasible_values(
            term, [T.cmp("ugt", T.var("i"), T.const(100), 8)], limit=8)
        assert not values.complete
        assert values.truncated_reason == "unevaluable"
        assert tel.counter("solver.values.partial").value == 1


class TestUnlimitedBudgetWindow:
    """Regression: UnlimitedBudget must expose a real remaining() window.

    An earlier version inherited ``limit=0`` arithmetic, so every
    probe/verification window sized from ``remaining()`` collapsed to
    zero and model probing silently never fired when stalls were
    disabled.
    """

    def test_remaining_stays_huge_after_charges(self):
        budget = UnlimitedBudget()
        budget.charge(10**9)
        assert budget.remaining() >= 10**12
        assert not budget.exhausted

    def test_model_probe_fires_under_unlimited_budget(self, tel):
        cache = SolverCache()
        solver = Solver(cache=cache)
        solver.solve([_c("a", 5)])             # records the model a=5
        grown = [_c("a", 5), T.cmp("ult", T.var("a"), T.const(10), 8)]
        assert solver.is_feasible(grown, UnlimitedBudget())
        assert cache.model_probe_hits == 1
        assert tel.counter("solver.cache.model_probe_hits").value == 1
