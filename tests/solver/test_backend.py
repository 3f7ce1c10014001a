"""The reference search backend and the solver's metering around it.

``Solver`` reaches the search through a ``ReferenceBackend`` instance,
so a wrapper installed on ``ReferenceBackend.search`` observes every
query.  The backend returns the model alone, and a query that fails
raises.  Every top-level query is counted exactly once, whichever way
it ends.
"""

import pytest

from repro import telemetry
from repro.errors import SolverTimeout, UnsatError
from repro.solver import terms as T
from repro.solver.backend import ReferenceBackend
from repro.solver.budget import Budget, UnlimitedBudget
from repro.solver.evaluator import tv_eval
from repro.solver.model import Model
from repro.solver.solver import Solver


@pytest.fixture(autouse=True)
def fresh_terms():
    with T.term_scope():
        yield


@pytest.fixture
def tel():
    registry = telemetry.Telemetry()
    with telemetry.scoped(registry):
        yield registry


def _contradiction():
    a = T.var("a")
    return [T.cmp("eq", a, T.const(1), 8), T.cmp("eq", a, T.const(2), 8)]


def _satisfiable():
    return [T.cmp("ugt", T.var("a"), T.const(200), 8),
            T.cmp("eq", T.binop("xor", T.var("a"), T.var("b"), 8),
                  T.const(0xFF), 8)]


def _long_chain():
    """A store chain too deep to search within a small budget."""
    node = T.array("A", bytes(2048))
    for i in range(150):
        node = T.store(node, T.binop("add", T.var("x"), T.const(i)),
                       T.var("v"))
    return [T.cmp("eq", T.read(node, T.var("y")), T.const(1, 8), 8),
            T.cmp("ult", T.var("x"), T.const(200), 64)]


class TestReferenceBackend:
    def test_complete_on_unsat(self):
        with pytest.raises(UnsatError):
            ReferenceBackend().search(_contradiction(), Budget(10_000))

    def test_model_satisfies(self):
        cs = _satisfiable()
        model = ReferenceBackend().search(cs, Budget(100_000))
        for c in cs:
            assert tv_eval(T.bool_term(c), model.assignment,
                           UnlimitedBudget()) == 1

    def test_returns_the_model_alone(self):
        backend = ReferenceBackend()
        model = backend.search(_satisfiable(), Budget(100_000))
        assert isinstance(model, Model)
        with pytest.raises(UnsatError) as err:
            backend.search(_contradiction(), Budget(10_000))
        assert not hasattr(err.value, "snapshot")

    def test_unsat_by_exhausting_every_value(self):
        # no square is 2 mod 256, and propagation cannot invert a*a:
        # the DFS refutes all 256 values, charging each one
        a = T.var("a")
        cs = [T.cmp("eq", T.binop("mul", a, a, 8), T.const(2), 8)]
        budget = Budget(1_000_000)
        with pytest.raises(UnsatError):
            ReferenceBackend().search(cs, budget)
        assert budget.spent > 256

    def test_timeout_raises(self):
        budget = Budget(500)
        with pytest.raises(SolverTimeout):
            ReferenceBackend().search(_long_chain(), budget)
        assert budget.spent > budget.limit


class TestSolverDispatch:
    def test_search_reached_through_the_class(self, monkeypatch):
        # the layer benchmark wraps ReferenceBackend.search by name: a
        # search function bound at import time would escape the wrapper
        seen = []
        original = ReferenceBackend.search

        def wrapped(self, constraints, budget, hints=None):
            seen.append(len(constraints))
            return original(self, constraints, budget, hints=hints)

        monkeypatch.setattr(ReferenceBackend, "search", wrapped)
        Solver().solve(_satisfiable())
        assert seen == [2]


class TestQueryAccounting:
    def test_solved_query_counted_once(self, tel):
        Solver().solve([T.cmp("eq", T.var("a"), T.const(3), 8)])
        snap = tel.snapshot()
        assert snap["counters"]["solver.queries.solve"] == 1
        assert snap["histograms"]["solver.work_per_query"]["count"] == 1

    def test_unsat_query_counted_once(self, tel):
        with pytest.raises(UnsatError):
            Solver().solve(_contradiction())
        counters = tel.snapshot()["counters"]
        assert counters["solver.unsat"] == 1
        assert counters["solver.queries.solve"] == 1
        assert "solver.timeouts" not in counters

    def test_timed_out_query_counted_once(self, tel):
        with pytest.raises(SolverTimeout):
            Solver(work_limit=500).solve(_long_chain())
        snap = tel.snapshot()
        assert snap["counters"]["solver.timeouts"] == 1
        assert snap["counters"]["solver.queries.solve"] == 1
        assert "solver.unsat" not in snap["counters"]
        # the histogram charges the work the budget actually spent
        assert snap["histograms"]["solver.work_per_query"]["count"] == 1
