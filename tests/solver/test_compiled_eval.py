"""The compiled evaluation path must be indistinguishable from the walker.

``tv_eval`` runs a qualifying term's compiled closures; ``_walk`` is the
iterative walker every term used to run and the reference here.  Both
must return the same value and charge the same work, and on a timeout
raise at the same ``work_spent``, whatever the term, the partial
assignment and the budget.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError, SolverTimeout
from repro.solver import evaluator as E
from repro.solver import terms as T
from repro.solver.budget import Budget, UnlimitedBudget
from repro.solver.evaluator import tv_eval

VARS = ("a", "b", "c", "d")
WIDTHS = (1, 8, 16, 32, 64)


@pytest.fixture(autouse=True)
def fresh_cache():
    T.clear_term_cache()
    yield


def _leaf(draw):
    if draw(st.booleans()):
        return T.var(draw(st.sampled_from(VARS)))
    width = draw(st.sampled_from(WIDTHS))
    return T.const(draw(st.integers(0, (1 << width) - 1)), width)


def _array(draw, pool, depth):
    """A base array with a chain of up to three stores on top."""
    size = draw(st.integers(1, 40))
    data = draw(st.lists(st.integers(0, 255), min_size=size,
                         max_size=size))
    node = T.array(draw(st.sampled_from(("A", "B"))), bytes(data))
    for _ in range(draw(st.integers(0, 3))):
        node = T.store(node, _term(draw, pool, depth - 1),
                       _term(draw, pool, depth - 1))
    return node


def _term(draw, pool, depth):
    """A random term over every op; ``pool`` feeds shared subterms."""
    if pool and draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(pool))
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        return _leaf(draw)
    kind = draw(st.sampled_from(
        ("binop", "cmp", "trunc", "sext", "concat", "extract", "ite",
         "read")))
    sub = lambda: _term(draw, pool, depth - 1)  # noqa: E731
    if kind == "binop":
        op = draw(st.sampled_from(sorted(T.BINOP_OPS)))
        lhs, rhs = sub(), sub()
        width = draw(st.sampled_from(WIDTHS))
        try:
            term = T.binop(op, lhs, rhs, width)
        except SolverError:  # constant division by zero does not build
            term = T.binop(op, lhs, T.var("d"), width)
    elif kind == "cmp":
        term = T.cmp(draw(st.sampled_from(sorted(T.CMP_OPS))),
                     sub(), sub(), draw(st.sampled_from(WIDTHS)))
    elif kind == "trunc":
        term = T.trunc(sub(), draw(st.sampled_from(WIDTHS)))
    elif kind == "sext":
        term = T.sext(sub(), draw(st.sampled_from(WIDTHS)))
    elif kind == "concat":
        term = T.concat([sub() for _ in range(draw(
            st.integers(1, 4)))])
    elif kind == "extract":
        term = T.extract(sub(), draw(st.integers(0, 7)))
    elif kind == "ite":
        term = T.ite(T.bool_term(sub()), sub(), sub())
    else:
        term = T.read(_array(draw, pool, depth), sub())
    pool.append(term)
    return term


def _outcome(evaluate, term, env, budget):
    try:
        value = evaluate(term, env, budget)
    except SolverTimeout as timeout:
        return ("timeout", timeout.work_spent, budget.spent)
    return ("value", value, budget.spent)


def _budget(limit, spent):
    budget = Budget(limit)
    budget.spent = spent
    return budget


@st.composite
def cases(draw):
    term = _term(draw, [], draw(st.integers(1, 5)))
    env = {name: draw(st.integers(0, 255)) for name in VARS
           if draw(st.booleans())}
    return term, env


class TestCompiledMatchesWalker:
    @settings(max_examples=300, deadline=None)
    @given(cases(), st.integers(0, 3))
    def test_same_value_and_charges_for_every_limit(self, case, spent):
        term, env = case
        cost = _outcome(E._walk, term, env, UnlimitedBudget())[2]
        for limit in range(0, cost + 3):
            for already in (0, min(spent, limit)):
                walked = _outcome(E._walk, term, env,
                                  _budget(limit, already))
                got = _outcome(tv_eval, term, env, _budget(limit, already))
                assert got == walked, (term, env, limit, already)

    @settings(max_examples=100, deadline=None)
    @given(cases())
    def test_unlimited_budget(self, case):
        term, env = case
        walked = _outcome(E._walk, term, env, UnlimitedBudget())
        assert _outcome(tv_eval, term, env, UnlimitedBudget()) == walked
        # the compiled form is kept on the term: a second call reuses it
        assert _outcome(tv_eval, term, env, UnlimitedBudget()) == walked


class TestWhatCompiles:
    def _compiled(self, term):
        tv_eval(term, {}, UnlimitedBudget())
        return bool(term._compiled)

    def test_lazy_free_tree_compiles_with_distinct_node_charge(self):
        term = T.cmp("ult", T.binop("add", T.var("a"), T.var("b"), 8),
                     T.const(9), 8)
        assert self._compiled(term)
        assert term._compiled[0] == T.term_size(term) == 5

    def test_shared_leaves_still_compile(self):
        term = T.binop("mul", T.var("a"), T.binop("xor", T.var("a"),
                                                  T.const(3)))
        assert self._compiled(term)
        assert term._compiled[0] == T.term_size(term) == 4

    def test_shared_interior_node_stays_on_walker(self):
        shared = T.binop("add", T.var("a"), T.const(1))
        assert not self._compiled(T.binop("mul", shared, shared))

    @pytest.mark.parametrize("build", [
        lambda: T.ite(T.cmp("eq", T.var("c"), T.const(1), 8),
                      T.var("a"), T.var("b")),
        lambda: T.read(T.array("A", bytes(8)), T.var("j")),
        lambda: T.cmp("eq", T.read(T.store(T.array("A", bytes(8)),
                                           T.var("i"), T.var("v")),
                                   T.var("j")), T.const(0), 8),
    ])
    def test_lazy_terms_stay_on_walker(self, build):
        assert not self._compiled(build())

    def test_depth_cap(self):
        def chain(levels):
            node = T.var("x")
            for i in range(levels - 1):
                node = T.binop("xor", node, T.const(i + 1), 32)
            return node

        assert self._compiled(chain(E.COMPILE_MAX_DEPTH))
        assert not self._compiled(chain(E.COMPILE_MAX_DEPTH + 1))

    def test_call_crossing_the_limit_times_out_like_the_walker(self):
        term = T.cmp("ult", T.binop("add", T.var("a"), T.var("b"), 8),
                     T.const(9), 8)
        assert self._compiled(term)
        budget = _budget(10, 7)
        with pytest.raises(SolverTimeout) as raised:
            tv_eval(term, {"a": 1, "b": 2}, budget)
        assert raised.value.work_spent == budget.spent == 11
