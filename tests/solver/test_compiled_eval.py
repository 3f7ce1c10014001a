"""The compiled evaluation path must be indistinguishable from the walker.

``tv_eval`` runs a qualifying term's generated function; ``_walk`` is the
iterative walker every term used to run and the reference here.  Both
must return the same value and charge the same work, and on a timeout
raise at the same ``work_spent``, whatever the term, the partial
assignment and the budget.  Reads of constant tables and shared interior
nodes compile; reads over store chains and ``ite`` stay on the walker.
Every term of one shape shares one generated factory, whose arguments
are the term's constants, variable names and table bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError, SolverTimeout
from repro.solver import evaluator as E
from repro.solver import terms as T
from repro.solver.budget import Budget, UnlimitedBudget
from repro.solver.evaluator import _walk, tv_eval

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
    node = _table(draw)
    for _ in range(draw(st.integers(0, 3))):
        node = T.store(node, _term(draw, pool, depth - 1),
                       _term(draw, pool, depth - 1))
    return node


def _table(draw):
    """A bare constant table: the array a compiled ``read`` reads."""
    size = draw(st.integers(1, 40))
    data = draw(st.lists(st.integers(0, 255), min_size=size,
                         max_size=size))
    return T.array(draw(st.sampled_from(("A", "B"))), bytes(data))


def _term(draw, pool, depth):
    """A random term over every op; ``pool`` feeds shared subterms."""
    if pool and draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(pool))
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        return _leaf(draw)
    kind = draw(st.sampled_from(
        ("binop", "cmp", "trunc", "sext", "concat", "extract", "ite",
         "read", "masked_read")))
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
    elif kind == "masked_read":
        term = _masked_read(draw, sub)
    else:
        term = T.read(_array(draw, pool, depth), sub())
    pool.append(term)
    return term


def _masked_read(draw, operand):
    """``x & table[i]`` or ``x * table[i]``, either way round.

    A zero ``x`` makes the result 0 whatever the read gives, but the
    walker still charges the read's unknown index, and so must the
    compiled call.
    """
    pair = [operand(), T.read(_table(draw), operand())]
    if draw(st.booleans()):
        pair.reverse()
    return T.binop(draw(st.sampled_from(("and", "mul"))), *pair,
                   draw(st.sampled_from(WIDTHS)))


def _outcome(evaluate, term, env, budget):
    try:
        value = evaluate(term, env, budget)
    except SolverTimeout as timeout:
        return ("timeout", timeout.work_spent, budget.spent)
    return ("value", value, budget.spent)


def _charge(term, env):
    """What the walker charges for ``term`` under ``env``."""
    budget = UnlimitedBudget()
    _walk(term, env, budget)
    return budget.spent


def _budget(limit, spent):
    budget = Budget(limit)
    budget.spent = spent
    return budget


@st.composite
def cases(draw):
    if draw(st.booleans()):
        # random terms seldom put a zero operand over a read with an
        # unknown index: half the cases are that shape over two
        # distinct variables
        names = iter(draw(st.permutations(VARS)))
        term = _masked_read(draw, lambda: T.var(next(names)))
    else:
        term = _term(draw, [], draw(st.integers(1, 5)))
    # zero often: a zero operand is what makes ``and``/``mul`` skip
    env = {name: draw(st.just(0) | st.integers(0, 255)) for name in VARS
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


def _edges(width):
    """Operands at ``width``'s edges, and wider than it."""
    top = (1 << width) - 1
    sign = 1 << (width - 1)
    return sorted({0, 1, top, sign, sign - 1, top + 1, (1 << 70) + 3})


def _same_as_walker(term, envs):
    for env in envs:
        walked = _outcome(E._walk, term, env, UnlimitedBudget())
        assert _outcome(tv_eval, term, env, UnlimitedBudget()) == walked, \
            (term, env)
    assert term._compiled is not E._DECLINED


class TestEveryOpOnEdgeOperands:
    """Each op at every width, on known and unknown operands at the
    width's edges, which random terms seldom draw."""

    @pytest.mark.parametrize("op", sorted(T.BINOP_OPS | T.CMP_OPS))
    def test_binary_ops(self, op):
        for width in WIDTHS:
            values = _edges(width) + [None]
            _same_as_walker(
                T.Term(op, (T.var("a"), T.var("b"), width), width),
                [{name: value for name, value in (("a", a), ("b", b))
                  if value is not None} for a in values for b in values])
            for edge in _edges(width):  # a constant operand on each side
                envs = [{} if value is None else {"a": value}
                        for value in values]
                _same_as_walker(T.Term(op, (T.var("a"), T.const(edge),
                                            width), width), envs)
                _same_as_walker(T.Term(op, (T.const(edge), T.var("a"),
                                            width), width), envs)

    def test_single_operand_ops_and_table_reads(self):
        envs = [{}] + [{"a": edge, "b": 3} for edge in _edges(64)] \
            + [{"a": -1}, {"a": 39}, {"a": 40}]
        table = T.array("T", bytes(range(7, 47)))
        terms = [T.concat([T.var("a"), T.var("b"), T.var("a")]),
                 T.read(table, T.var("a")),
                 T.binop("add", T.read(table, T.const(40)), T.var("a"))]
        for width in WIDTHS:
            terms += [T.trunc(T.var("a"), width), T.sext(T.var("a"), width)]
        for index in range(9):
            terms.append(T.Term("extract", (T.var("a"), index), 8))
        for term in terms:
            _same_as_walker(term, envs)


class TestWhatCompiles:
    def _compiled(self, term):
        tv_eval(term, {}, UnlimitedBudget())
        return term._compiled is not E._DECLINED

    def _charges(self, term, env):
        """What ``tv_eval`` charges, which must be what the walker does."""
        budget = UnlimitedBudget()
        assert tv_eval(term, env, budget) == _walk(term, env,
                                                   UnlimitedBudget())
        assert budget.spent == _charge(term, env)
        return budget.spent

    def test_lazy_free_tree_compiles_with_distinct_node_charge(self):
        term = T.cmp("ult", T.binop("add", T.var("a"), T.var("b"), 8),
                     T.const(9), 8)
        assert self._compiled(term)
        for env in ({}, {"a": 1}, {"a": 1, "b": 2}):
            assert self._charges(term, env) == T.term_size(term) == 5

    def test_shared_leaves_still_compile(self):
        term = T.binop("mul", T.var("a"), T.binop("xor", T.var("a"),
                                                  T.const(3)))
        assert self._compiled(term)
        assert self._charges(term, {"a": 5}) == T.term_size(term) == 4

    def test_shared_interior_nodes_charge_distinct_nodes(self):
        """Shared interior nodes compile, and each is computed and charged
        once, as the walker does."""
        shared = T.binop("add", T.var("a"), T.const(1))
        term = T.binop("mul", shared, shared)
        assert self._compiled(term)
        assert self._charges(term, {"a": 6}) == T.term_size(term) == 4
        # 15 levels of ``t = t ^ (t + b)``: 32 nodes, 2^15 paths
        node = T.var("a")
        for _ in range(15):
            node = T.binop("xor", node, T.binop("add", node, T.var("b"),
                                                16), 16)
        assert self._compiled(node)
        for env in ({}, {"a": 3}, {"a": 3, "b": 250}):
            assert self._charges(node, env) == T.term_size(node) == 32

    @pytest.mark.parametrize("build", [
        lambda: T.ite(T.cmp("eq", T.var("c"), T.const(1), 8),
                      T.var("a"), T.var("b")),
        lambda: T.cmp("eq", T.read(T.store(T.array("A", bytes(8)),
                                           T.var("i"), T.var("v")),
                                   T.var("j")), T.const(0), 8),
        # a table read compiles only if its index does
        lambda: T.read(T.array("A", bytes(8)),
                       T.ite(T.cmp("eq", T.var("c"), T.const(1), 8),
                             T.var("i"), T.var("j"))),
    ])
    def test_lazy_terms_stay_on_walker(self, build):
        assert not self._compiled(build())

    def test_bare_table_read_compiles(self, monkeypatch):
        table = T.array("A", bytes(range(40)))
        unit = 40 // E.OBJECT_BYTES_PER_UNIT
        term = T.cmp("eq", T.read(table, T.var("j")), T.const(7), 8)
        assert self._compiled(term)
        # the walker never visits the array: eq, read, j and 7
        cost = T.term_size(term) - 1
        assert cost == 4
        walks = []
        monkeypatch.setattr(E, "_walk", lambda *args: walks.append(1)
                            or _walk(*args))
        for env, value, spent in (({"j": 7}, 1, cost),
                                  ({"j": 8}, 0, cost),
                                  ({"j": 99}, None, cost),  # out of bounds
                                  ({"j": -1}, None, cost),
                                  ({}, None, cost + unit)):
            budget = UnlimitedBudget()
            assert tv_eval(term, env, budget) == value
            assert budget.spent == spent == _charge(term, env)
        assert not walks
        # only the unknown-index charge would cross the limit: the
        # walker runs, and with a known index it fits
        budget = _budget(cost + unit - 1, 0)
        assert tv_eval(term, {"j": 7}, budget) == 1
        assert budget.spent == cost and walks == [1]
        # with an unknown index it times out where the walker does
        budget = _budget(cost + unit - 1, 0)
        with pytest.raises(SolverTimeout) as raised:
            tv_eval(term, {}, budget)
        assert raised.value.work_spent == budget.spent == cost + unit
        assert walks == [1, 1]

    @pytest.mark.parametrize("op", ["and", "mul"])
    def test_read_skipped_by_zero_operand_still_charges(self, op):
        """``a & table[j]`` with ``a = 0`` is 0 whatever the table holds,
        but the walker evaluates the read and charges its unknown
        index."""
        table = T.array("A", bytes(64))
        term = T.binop(op, T.var("a"), T.read(table, T.var("j")), 8)
        assert self._compiled(term)
        budget = UnlimitedBudget()
        assert tv_eval(term, {"a": 0}, budget) == 0
        assert budget.spent == _charge(term, {"a": 0}) \
            == 4 + 64 // E.OBJECT_BYTES_PER_UNIT

    def test_depth_cap(self):
        def chain(levels):
            node = T.var("x")
            for i in range(levels - 1):
                node = T.binop("xor", node, T.const(i + 1), 32)
            return node

        assert self._compiled(chain(E.COMPILE_MAX_DEPTH))
        assert not self._compiled(chain(E.COMPILE_MAX_DEPTH + 1))

    def test_depth_cap_counts_the_longest_path_to_a_shared_node(self):
        """``c + (c ^ 1)`` reaches ``c`` first one level down and then
        two: the term has two levels more than ``c``."""
        def fork(levels):
            node = T.var("x")
            for i in range(levels - 1):
                node = T.binop("xor", node, T.const(i + 1), 32)
            return T.binop("add", node, T.binop("xor", node, T.const(1)))

        assert self._compiled(fork(E.COMPILE_MAX_DEPTH - 2))
        assert not self._compiled(fork(E.COMPILE_MAX_DEPTH - 1))

    def test_call_crossing_the_limit_times_out_like_the_walker(self):
        term = T.cmp("ult", T.binop("add", T.var("a"), T.var("b"), 8),
                     T.const(9), 8)
        assert self._compiled(term)
        budget = _budget(10, 7)
        with pytest.raises(SolverTimeout) as raised:
            tv_eval(term, {"a": 1, "b": 2}, budget)
        assert raised.value.work_spent == budget.spent == 11


class TestOneFactoryPerShape:
    @pytest.fixture(autouse=True)
    def fresh_factories(self, monkeypatch):
        monkeypatch.setattr(E, "_FACTORIES", {})
        self.generated = []
        factory = E._factory
        monkeypatch.setattr(E, "_factory", lambda key: self.generated.append(
            key) or factory(key))

    @staticmethod
    def _shape(lhs, rhs, limit, table):
        return T.cmp("ult", T.binop("add", T.var(lhs), T.read(
            T.array("T", table), T.var(rhs)), 8), T.const(limit), 8)

    def test_constants_names_and_table_bytes_are_arguments(self):
        first = self._shape("a", "b", 9, bytes(range(32)))
        second = self._shape("x", "y", 200, bytes(32))
        for term in (first, second):
            tv_eval(term, {}, UnlimitedBudget())
        assert len(self.generated) == 1 and len(E._FACTORIES) == 1
        assert first._compiled.__code__ is second._compiled.__code__
        for term, env in ((first, {"a": 1, "b": 5}),
                          (second, {"x": 1, "y": 5}), (second, {"x": 1})):
            budget = UnlimitedBudget()
            assert tv_eval(term, env, budget) == _walk(term, env,
                                                       UnlimitedBudget())
            assert budget.spent == _charge(term, env)

    def test_each_shape_is_generated_once(self):
        shapes = [
            lambda i: self._shape(f"a{i}", f"b{i}", i, bytes([i]) * 32),
            # another table size changes the bounds and the charge
            lambda i: self._shape(f"a{i}", f"b{i}", i, bytes([i]) * 48),
            # sharing is part of the shape: one variable twice
            lambda i: self._shape(f"a{i}", f"a{i}", i, bytes([i]) * 32),
            lambda i: T.binop("mul", T.var(f"a{i}"), T.const(i + 2), 16),
            lambda i: T.binop("mul", T.var(f"a{i}"), T.const(i + 2), 32),
        ]
        for i in range(3):
            for shape in shapes:
                term = shape(i)
                tv_eval(term, {}, UnlimitedBudget())
                assert term._compiled is not E._DECLINED
        assert len(self.generated) == len(E._FACTORIES) == len(shapes)

    def test_memo_starts_over_when_full(self, monkeypatch):
        monkeypatch.setattr(E, "_FACTORY_LIMIT", 2)
        for width in (8, 16, 32):
            tv_eval(T.binop("add", T.var("a"), T.const(1), width), {},
                    UnlimitedBudget())
        assert len(self.generated) == 3 and len(E._FACTORIES) == 1


#: variable names and table bytes that would break, or run code in,
#: source text they were spliced into
_HOSTILE = ['a"]; raise SystemExit  # ', "b\n        return 0", "{c}",
            "d' + __import__('os').sep + '"]
_HOSTILE_TABLE = b"\x00'); raise SystemExit  # \n{0}" + bytes(range(40))


def test_generated_terms_bind_names_never_splice_them():
    """Variable names and table bytes reach a generated term as default
    arguments: its code holds only integer literals and fixed names, and
    it evaluates hostile names like any others."""
    a, b, c, d = [T.var(name) for name in _HOSTILE]
    term = T.cmp("ne", T.concat([T.read(T.array(_HOSTILE[2], _HOSTILE_TABLE),
                                        T.binop("add", a, b, 8)),
                                 T.binop("sdiv", c, d, 8)]),
                 T.const(0x1234, 16), 16)
    for env in ({}, dict.fromkeys(_HOSTILE, 1), dict(zip(_HOSTILE, range(4))),
                dict(zip(_HOSTILE, (250, 9, 7, 0)))):
        budget = UnlimitedBudget()
        assert tv_eval(term, env, budget) == _walk(term, env,
                                                   UnlimitedBudget())
        assert budget.spent == _charge(term, env)
    evaluate = term._compiled
    assert evaluate is not E._DECLINED
    code = evaluate.__code__
    assert all(isinstance(value, int) or value is None
               for value in code.co_consts)
    fixed = code.co_names + code.co_varnames + code.co_freevars
    assert all(name.isidentifier() and name.isascii() for name in fixed)
    assert not evaluate.__closure__
    assert set(evaluate.__defaults__) >= set(_HOSTILE) | {_HOSTILE_TABLE}
