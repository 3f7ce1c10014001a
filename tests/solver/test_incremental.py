"""The assumption stack's alignment: facts survive exactly as long as
every constraint their derivation read.

The solver no longer feeds or reads a stack; the module stays only for
the layer benchmark's entry points, and these tests go with it.
"""

import pytest

from repro.solver import terms as T
from repro.solver.incremental import AssumptionStack
from repro.solver.model import input_var_name


@pytest.fixture(autouse=True)
def fresh_terms():
    with T.term_scope():
        yield


def _v(i):
    return T.var(input_var_name("stdin", i), 8)


def _eq(term, value, width=8):
    return T.cmp("eq", term, T.const(value, width), width)


class TestStackAlignment:
    def test_empty_stack_aligns_to_zero(self):
        stack = AssumptionStack()
        assert stack.align([_eq(_v(0), 1)]) == 0
        assert len(stack) == 0

    def test_extend_then_full_realign_retains_all(self):
        stack = AssumptionStack()
        terms = [_eq(_v(0), 1), _eq(_v(1), 2)]
        stack.extend(terms, {"a": 1}, {"a": 1}, {})
        assert stack.align(terms + [_eq(_v(2), 3)]) == 2
        assert stack.retained().env == {"a": 1}

    def test_divergence_drops_dependent_facts_only(self):
        stack = AssumptionStack()
        terms = [_eq(_v(0), 1), _eq(_v(1), 2), _eq(_v(2), 3)]
        stack.extend(terms, {"early": 7, "late": 9},
                     {"early": 0, "late": 2}, {terms[1]: 1})
        # replace the last constraint: facts depending on index 2 die,
        # everything anchored earlier survives
        assert stack.align(terms[:2] + [_eq(_v(2), 99)]) == 2
        retained = stack.retained()
        assert retained.env == {"early": 7}
        assert terms[1] in retained.satisfied
        assert retained.env_deps == {"early": 0}

    def test_conflicts_pop_with_their_dependency(self):
        stack = AssumptionStack()
        terms = [_eq(_v(0), 1), _eq(_v(1), 2)]
        stack.extend(terms, {}, {}, {},
                     learned={"x": {5: 0, 6: 1}})
        assert stack.retained().excluded == {"x": {5: 0, 6: 1}}
        stack.align([terms[0], _eq(_v(1), 99)])
        # the dep-1 conflict read the replaced constraint; the dep-0
        # conflict did not
        assert stack.retained().excluded == {"x": {5: 0}}
        assert stack.conflicts_dropped == 1

    def test_total_divergence_clears_everything(self):
        stack = AssumptionStack()
        stack.extend([_eq(_v(0), 1)], {"a": 1}, {"a": 0},
                     {}, learned={"x": {5: 0}})
        stack.align([_eq(_v(0), 2)])
        retained = stack.retained()
        assert retained.env == {}
        assert retained.excluded == {}
        assert len(stack) == 0

    def test_deps_clamped_to_list_end(self):
        stack = AssumptionStack()
        terms = [_eq(_v(0), 1)]
        # a missing or overlong dep anchors at the list end, so the
        # fact dies at the first divergence instead of surviving it
        stack.extend(terms, {"a": 1}, {}, {}, learned={"x": {5: 99}})
        assert stack.retained().excluded == {"x": {5: 0}}
        assert stack.retained().env_deps == {"a": 0}

