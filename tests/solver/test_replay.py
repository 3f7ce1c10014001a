"""The solver's replays must charge exactly what re-evaluation charges.

Model probes charge the constraint prefix a model was already proven
against instead of evaluating it, ``_Search`` replays propagation's last
sweep instead of evaluating every constraint again, and ``_candidates``
reads a per-variable list of constraints instead of rescanning the
buckets.  ``reference_solver`` keeps the re-evaluating code; verdicts,
``spent`` and the ``work_spent`` of every timeout must match it at every
limit.
"""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverTimeout, UnsatError
from repro.solver import solver as S
from repro.solver import terms as T
from repro.solver.budget import Budget, UnlimitedBudget
from repro.solver.cache import ProvenModel, SolverCache
from tests.solver import reference_solver as R
from tests.solver.test_compiled_eval import VARS, _term


@pytest.fixture(autouse=True)
def fresh_cache():
    T.clear_term_cache()
    yield


def _outcome(call, *args):
    budget = args[-1]
    try:
        value = call(*args)
    except SolverTimeout as timeout:
        return ("timeout", timeout.work_spent, budget.spent)
    return ("value", value, budget.spent)


# ----------------------------------------------------------------------
# model probes

@st.composite
def probe_cases(draw):
    """1-4 models and a sequence of constraint lists that share a common
    prefix for a while and then diverge; most constraints hold under the
    first model, so probes prove long prefixes."""
    models = [{name: draw(st.integers(0, 255)) for name in VARS
               if draw(st.integers(0, 5))}
              for _ in range(draw(st.integers(1, 4)))]
    pool = []
    for _ in range(draw(st.integers(2, 8))):
        term = _term(draw, [], draw(st.integers(1, 3)))
        value = S.tv_eval(term, models[0], UnlimitedBudget())
        if value is not None and draw(st.integers(0, 4)):
            pool.append(T.cmp("eq", term, T.const(value), 64))
        else:
            pool.append(T.bool_term(term))
    probes = []
    for _ in range(draw(st.integers(1, 5))):
        keep = draw(st.integers(0, len(pool)))
        tail = draw(st.lists(st.sampled_from(pool), max_size=3))
        probes.append(pool[:keep] + tail)
    return models, probes


def _total(models, probes):
    return max(_outcome(R.satisfies, model, constraints,
                        UnlimitedBudget())[2]
               for model in models for constraints in probes)


def _budget(limit, spent):
    budget = Budget(limit)
    budget.spent = spent
    return budget


class TestProbeReplay:
    """Each probe runs at the limit under test, from zero and from half
    of it already spent, and then once without a limit, so the next
    probe meets a proven prefix longer than its limit allows."""

    @settings(max_examples=60, deadline=None)
    @given(probe_cases())
    def test_matches_per_constraint_loop_at_every_limit(self, case):
        models, probes = case
        for limit in range(1, _total(models, probes) + 2):
            proven = [ProvenModel(model) for model in models]
            for constraints in probes:
                for model, record in zip(models, proven):
                    for already in (0, limit // 2):
                        want = _outcome(R.satisfies, model, constraints,
                                        _budget(limit, already))
                        got = _outcome(S._satisfies, record, constraints,
                                       _budget(limit, already))
                        assert got == want, (limit, already, constraints)
                    assert _outcome(S._satisfies, record, constraints,
                                    UnlimitedBudget()) == \
                        _outcome(R.satisfies, model, constraints,
                                 UnlimitedBudget())

    @settings(max_examples=40, deadline=None)
    @given(probe_cases())
    def test_probe_sequence_matches_reference(self, case):
        """Through ``Solver._probe_models``, whose models share one
        scratch budget: verdict and charge to the query's budget, with
        the scratch cap at every limit."""
        models, probes = case
        for limit in range(1, _total(models, probes) + 2):
            fast, slow = S.Solver(cache=SolverCache()), \
                S.Solver(cache=SolverCache())
            for model in models:
                fast.cache.record_model(model)
                slow.cache.record_model(model)
            for constraints in probes:
                for budget in (lambda: Budget(4 * limit), UnlimitedBudget):
                    want = _outcome(R.probe_models, slow, constraints,
                                    budget())
                    got = _outcome(fast._probe_models, constraints,
                                   budget())
                    assert got == want, (limit, constraints)

    def test_prefix_is_charged_not_evaluated(self, monkeypatch):
        x = T.var("x")
        constraints = [T.cmp("ult", T.binop("add", x, T.const(i), 8),
                             T.const(200), 8) for i in range(5)]
        model = ProvenModel({"x": 3})
        budget = UnlimitedBudget()
        assert S._satisfies(model, constraints[:3], budget)
        assert model.proven == constraints[:3]
        first = budget.spent
        assert model.charges[-1] == first
        evaluated = []
        real = S.tv_eval
        monkeypatch.setattr(S, "tv_eval", lambda term, env, b: (
            evaluated.append(term), real(term, env, b))[1])
        budget = UnlimitedBudget()
        assert S._satisfies(model, constraints, budget)
        assert evaluated == constraints[3:]
        assert budget.spent == _outcome(R.satisfies, {"x": 3}, constraints,
                                        UnlimitedBudget())[2]
        assert model.proven == constraints
        # an equal list built in another term space matches nothing:
        # prefixes match by identity, never by a structural walk
        evaluated.clear()
        with T.term_scope():
            other = [T.cmp("ult", T.binop("add", T.var("x"), T.const(i), 8),
                           T.const(200), 8) for i in range(5)]
        assert other == constraints
        assert not any(map(operator.is_, other, constraints))
        assert S._satisfies(model, other, UnlimitedBudget())
        assert [id(term) for term in evaluated] == [id(term) for term in other]


# ----------------------------------------------------------------------
# propagation's last sweep

def _chained_query():
    """Three propagation sweeps: the first assigns x, the second y, the
    third nothing.  ``z < 9`` stays unknown for the DFS."""
    x, y, z = T.var("x"), T.var("y"), T.var("z")
    return [T.cmp("eq", T.binop("add", x, y, 8), T.const(5), 8),
            T.cmp("eq", x, T.const(3), 8),
            T.cmp("ult", z, T.const(9), 8)]


def _run(constraints, budget, reference=False):
    """A search's outcome; ``reference`` re-evaluates every constraint
    after propagation instead of replaying its last sweep."""
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            patch.setattr(S._Search, "_active_constraints",
                          R.active_constraints)
        try:
            model = S._Search(constraints, budget).run()
        except SolverTimeout as timeout:
            return ("timeout", timeout.work_spent, budget.spent)
        except UnsatError:
            return ("unsat", budget.spent)
    return ("sat", model.assignment, budget.spent)


class TestSweepReplay:
    def test_replays_the_sweep_that_assigned_nothing(self):
        constraints = _chained_query()
        search = S._Search(constraints, UnlimitedBudget())
        search._propagate()
        assert search.env == {"x": 3, "y": 2}
        assert [value for _c, value, _charge in search._last_sweep] \
            == [1, 1, None]
        before = search.budget.spent
        assert search._active_constraints() == constraints[2:]
        replayed = search.budget.spent - before
        search.budget.spent = before
        assert R.active_constraints(search) == constraints[2:]
        assert search.budget.spent - before == replayed
        total = _run(constraints, UnlimitedBudget())[2]
        for limit in range(total + 2):
            assert _run(constraints, Budget(limit)) == \
                _run(constraints, Budget(limit), reference=True), limit

    def test_limit_inside_the_replayed_sweep(self):
        """Every limit that propagation survives but the replayed sweep
        crosses times out where re-evaluation does."""
        constraints = _chained_query() + [
            T.cmp("ne", T.read(T.array("T", bytes(range(64))), T.var("z")),
                  T.const(70), 8)]
        search = S._Search(constraints, UnlimitedBudget())
        search._propagate()
        start = search.budget.spent
        sweep = sum(charge for _c, _v, charge in search._last_sweep)
        assert sweep > len(constraints)  # the unknown read's charge
        for limit in range(start, start + sweep):
            got = _run(constraints, Budget(limit))
            assert got[0] == "timeout", limit
            assert got == _run(constraints, Budget(limit),
                               reference=True), limit


# ----------------------------------------------------------------------
# candidate sources

def test_candidate_sources_are_the_buckets_rescanned():
    a, b, c = T.var("a"), T.var("b"), T.var("c")
    word = T.concat([a, b])
    constraints = [
        T.cmp("ult", word, T.const(300), 16),
        T.cmp("ne", T.binop("xor", a, T.const(7), 8), T.const(5), 8),
        T.cmp("ne", T.binop("add", b, c, 8), T.const(1), 8),
        T.cmp("ult", c, T.const(5), 8),
        T.cmp("eq", T.read(T.array("T", b"xyzab"), c), T.const(97), 8),
    ]
    search = S._Search(constraints, UnlimitedBudget())
    search._propagate()
    active = search._active_constraints()
    groups = search._word_groups(active)
    order = search._variable_order(active, groups)
    buckets = search._bucket_constraints(active, order)
    sources = search._candidate_sources(buckets, order)
    assert order == ["a", "b", "c"]
    for depth, name in enumerate(order):
        assert sources[name] == [
            constraint for bucket in buckets[depth:] for constraint in bucket
            if name in constraint.free_vars()]
    assert S._Search(constraints, UnlimitedBudget()).run().assignment
