"""Deep-term regression: evaluation must not hit the recursion limit.

Loop-heavy programs build terms tens of thousands of nodes deep; the
evaluator is iterative precisely so those do not blow Python's stack.
"""

import time

import pytest

from repro.solver import terms as T
from repro.solver.budget import Budget, UnlimitedBudget
from repro.solver.evaluator import _walk, tv_eval
from repro.solver.solver import Solver


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
