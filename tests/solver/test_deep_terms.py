"""Deep-term regression: evaluation must not hit the recursion limit.

Loop-heavy programs build terms tens of thousands of nodes deep; the
evaluator is iterative precisely so those do not blow Python's stack.
"""

import time

import pytest
from hypothesis import given, settings

from repro.errors import UnsatError
from repro.solver import terms as T
from repro.solver.budget import Budget, UnlimitedBudget
from repro.solver.evaluator import _walk, tv_eval
from repro.solver.solver import Solver
from tests.solver.test_compiled_eval import cases


@pytest.fixture(autouse=True)
def fresh_cache():
    T.clear_term_cache()
    yield


def deep_chain(depth, base=None):
    node = base if base is not None else T.var("x")
    for i in range(depth):
        node = T.binop("xor", T.binop("shl", node, T.const(1), 32),
                       T.const(i), 32)
    return node


class TestDeepEvaluation:
    def test_50k_deep_term_evaluates(self):
        term = deep_chain(25_000)  # ~50k nodes deep
        value = tv_eval(term, {"x": 7}, UnlimitedBudget())
        assert value is not None

    def test_50k_deep_matches_reference(self):
        term = deep_chain(5_000)
        got = tv_eval(term, {"x": 3}, UnlimitedBudget())
        expected = 3
        for i in range(5_000):
            expected = (((expected << 1) & 0xFFFFFFFF) ^ i) & 0xFFFFFFFF
        assert got == expected

    def test_deep_unknown_propagates(self):
        term = deep_chain(20_000)
        assert tv_eval(term, {}, UnlimitedBudget()) is None

    def test_deep_read_chain(self):
        arr = T.array("A", bytes(64))
        node = arr
        for i in range(8_000):
            node = T.store(node, T.const(i % 64), T.const(i & 0xFF, 8))
        read = T.read(node, T.var("j"))
        value = tv_eval(read, {"j": 5}, UnlimitedBudget())
        # topmost store to index 5: i = 7941 (largest i%64==5)
        assert value == 7941 & 0xFF

    def test_deep_term_in_solver(self):
        term = deep_chain(4_000)
        cs = [T.cmp("eq", T.binop("and", term, T.const(0), 32),
                    T.const(0), 32)]
        model = Solver().solve(cs)
        assert model is not None

    def test_budget_still_charged(self):
        term = deep_chain(1_000)
        budget = Budget(10**9)
        tv_eval(term, {"x": 1}, budget)
        assert budget.spent >= 2_000  # >= one charge per node

    def test_ite_untaken_branch_not_evaluated(self):
        # the untaken branch holds a read of an undefined-op; evaluating
        # it would raise — taken-branch laziness must survive iteration
        poison = T.binop("udiv", T.const(1), T.var("z"), 8)
        term = T.ite(T.cmp("eq", T.var("c"), T.const(1), 8),
                     T.const(42), poison)
        assert tv_eval(term, {"c": 1}, UnlimitedBudget()) == 42

    def test_shared_subterms_memoized_once(self):
        shared = deep_chain(2_000)
        tree = T.binop("add", shared, shared, 32)
        budget = Budget(10**9)
        tv_eval(tree, {"x": 1}, budget)
        # roughly one visit per distinct node, not two
        assert budget.spent < 2 * 2 * 2_000 + 100

    def test_doubling_dag_stays_linear(self):
        # 24 levels of x + x: 25 distinct nodes but 2**24 paths, so
        # anything that re-evaluates shared subterms per path never ends
        node = T.var("x")
        for _ in range(24):
            node = T.binop("add", node, node, 32)
        walked = Budget(10**9)
        expected = _walk(node, {"x": 3}, walked)
        budget = Budget(10**9)
        started = time.perf_counter()
        value = tv_eval(node, {"x": 3}, budget)
        assert time.perf_counter() - started < 0.05
        assert value == expected == (3 << 24) & 0xFFFFFFFF
        assert budget.spent == walked.spent == 25


def _recursive_repr(term):
    """The recursive renderer ``Term.__repr__`` replaced, verbatim."""
    if term.op == "const":
        return f"bv({term.args[0]})"
    if term.op == "var":
        return f"λ{term.args[0]}"
    if term.op == "array":
        return f"array({term.args[0]}[{term.width}])"
    inner = ", ".join(_recursive_repr(a) if isinstance(a, T.Term)
                      else repr(a) for a in term.args)
    return f"{term.op}({inner})"


def _false_deep_constraints(depth=5_000):
    """x == 3, and a ~2 * depth-deep constraint on x that x = 3 falsifies:
    propagation assigns x, evaluates the deep one to 0 and raises
    ``UnsatError`` naming it."""
    value = 3
    for i in range(depth):
        value = ((value << 1) ^ i) & 0xFFFFFFFF
    return [T.cmp("eq", T.var("x"), T.const(3), 8),
            T.cmp("eq", deep_chain(depth), T.const(value ^ 1), 32)]


class TestDeepRepr:
    """Solver errors render the false constraint with ``repr``; a deep
    one must still raise the error, not RecursionError."""

    @settings(max_examples=200, deadline=None)
    @given(cases())
    def test_matches_recursive_renderer(self, case):
        term, _env = case
        assert repr(term) == _recursive_repr(term)

    def test_deep_repr(self):
        text = repr(deep_chain(5_000))
        assert text.startswith("xor(bv(4999), shl(xor(bv(4998), shl(")
        assert text.count("λx") == 1
        # x ^ 0 folds away: one xor fewer than shifts
        assert text.count("shl(") == 5_000 and text.count("xor(") == 4_999
        assert text.endswith(", 32), bv(1), 32), 32)")

    def test_solve_raises_unsat(self):
        with pytest.raises(UnsatError, match="constraint is false: eq"):
            Solver().solve(_false_deep_constraints())

    def test_is_feasible_answers_false(self):
        assert Solver().is_feasible(_false_deep_constraints()) is False
