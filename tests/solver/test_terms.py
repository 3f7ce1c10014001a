"""Term construction: interning, folding, array collapse, widths."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.ir.ops import apply_binop, apply_cmp
from repro.solver import terms as T


@pytest.fixture(autouse=True)
def fresh_cache():
    T.clear_term_cache()
    yield


class TestInterning:
    def test_structural_identity(self):
        assert T.const(5) is T.const(5)
        assert T.var("a") is T.var("a")

    def test_distinct_terms_differ(self):
        assert T.const(5) is not T.const(6)

    def test_compound_interning(self):
        a = T.binop("add", T.var("x"), T.const(1))
        b = T.binop("add", T.var("x"), T.const(1))
        assert a is b

    def test_cache_clear(self):
        a = T.var("x")
        T.clear_term_cache()
        assert T.var("x") is not a


class TestTermScopes:
    def test_scope_has_its_own_table(self):
        outer = T.var("x")
        with T.term_scope():
            inner = T.var("x")
            assert inner is not outer
            assert T.var("x") is inner        # interned within the scope
        assert T.var("x") is outer            # outer table untouched

    def test_structural_equality_across_scopes(self):
        outer = T.binop("add", T.var("x"), T.const(1))
        with T.term_scope():
            inner = T.binop("add", T.var("x"), T.const(1))
        assert inner is not outer
        assert inner == outer
        assert hash(inner) == hash(outer)

    def test_clear_only_resets_current_scope(self):
        outer = T.var("x")
        with T.term_scope():
            T.var("x")
            T.clear_term_cache()              # clears the scoped table
        assert T.var("x") is outer            # outer survived the clear

    def test_reuse_active_joins_enclosing_scope(self):
        with T.term_scope() as space:
            with T.term_scope(reuse_active=True) as inner:
                assert inner is space

    def test_reuse_active_without_scope_creates_one(self):
        outer = T.var("x")
        with T.term_scope(reuse_active=True):
            assert T.var("x") is not outer

    def test_true_false_shared_across_scopes(self):
        with T.term_scope():
            assert T.cmp("ult", T.const(1), T.const(2)) is T.TRUE
            assert T.not_(T.TRUE) is T.FALSE

    def test_nested_equality_not_recursive(self):
        # structural equality must survive terms deeper than the
        # recursion limit (real constraint chains get that deep)
        def chain():
            node = T.var("x")
            for i in range(4000):
                node = T.binop("add", node, T.const(1), 64)
            return node
        with T.term_scope():
            a = chain()
        with T.term_scope():
            b = chain()
        assert a == b

    def test_shared_dag_equality_compares_each_pair_once(self):
        """24 levels of ``t = t ^ (t + b)`` are 50 nodes but 2^24 paths;
        walking them as a tree took about a minute."""
        def dag(base):
            node = base
            for _ in range(24):
                node = T.binop("xor", node,
                               T.binop("add", node, T.var("b")))
            return node

        with T.term_scope():
            first = dag(T.var("a"))
        with T.term_scope():
            second = dag(T.var("a"))
        with T.term_scope():
            # a base whose hash collides with ``a``'s, so that only the
            # walk down to it tells the terms apart
            base = T.Term("var", ("z",), 8)
            base._hash = hash(T.var("a"))
            forged = dag(base)
        assert hash(forged) == hash(first)
        start = time.perf_counter()
        assert first == second
        assert first != forged
        assert time.perf_counter() - start < 2.0

    def test_threads_are_isolated(self):
        import threading

        results = {}

        def worker(name):
            with T.term_scope():
                results[name] = T.var("shared")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results[0] is not results[1]
        assert results[0] == results[1]


class TestFolding:
    def test_binop_consts_fold(self):
        t = T.binop("add", T.const(200), T.const(100), 8)
        assert t.is_const and t.value == 44

    def test_cmp_consts_fold(self):
        assert T.cmp("ult", T.const(1), T.const(2)) is T.TRUE

    def test_add_zero_identity(self):
        x = T.var("x")
        assert T.binop("add", x, T.const(0)) is x

    def test_mul_zero_annihilates(self):
        assert T.binop("mul", T.var("x"), T.const(0)).value == 0

    def test_mul_one_identity(self):
        x = T.var("x")
        assert T.binop("mul", T.const(1), x) is x

    def test_nested_const_adds_fold(self):
        # (c1 + (c2 + x)) -> (c1+c2) + x keeps address bases foldable
        x = T.var("x")
        inner = T.binop("add", T.const(10), x)
        outer = T.binop("add", T.const(5), inner)
        assert outer.args[0].value == 15

    def test_eq_same_term_true(self):
        x = T.binop("add", T.var("x"), T.var("y"))
        assert T.cmp("eq", x, x) is T.TRUE
        assert T.cmp("ne", x, x) is T.FALSE

    def test_concat_consts(self):
        t = T.concat([T.const(0x34, 8), T.const(0x12, 8)])
        assert t.value == 0x1234

    def test_extract_of_concat(self):
        b0, b1 = T.var("a"), T.var("b")
        t = T.concat([b0, b1])
        assert T.extract(t, 0) is b0
        assert T.extract(t, 1) is b1

    def test_extract_beyond_width_is_zero(self):
        assert T.extract(T.var("a"), 3).value == 0

    def test_ite_folds_const_cond(self):
        a, b = T.var("a"), T.var("b")
        assert T.ite(T.TRUE, a, b) is a
        assert T.ite(T.FALSE, a, b) is b

    def test_not_flips_comparison(self):
        t = T.cmp("ult", T.var("a"), T.const(5))
        assert T.not_(t).op == "uge"

    def test_trunc_const(self):
        assert T.trunc(T.const(0x1FF), 8).value == 0xFF

    def test_sext_const(self):
        assert T.sext(T.const(0x80), 8).value == 0xFFFFFFFFFFFFFF80

    def test_division_by_const_zero_raises(self):
        with pytest.raises(SolverError):
            T.binop("udiv", T.const(5), T.const(0), 8)


class TestArrays:
    def test_read_concrete_base(self):
        arr = T.array("A", b"\x01\x02\x03")
        assert T.read(arr, T.const(1)).value == 2

    def test_read_over_matching_store(self):
        arr = T.array("A", bytes(8))
        st_ = T.store(arr, T.const(3), T.const(9, 8))
        assert T.read(st_, T.const(3)).value == 9

    def test_read_skips_nonmatching_const_store(self):
        arr = T.array("A", b"\x05" * 8)
        st_ = T.store(arr, T.const(3), T.const(9, 8))
        assert T.read(st_, T.const(4)).value == 5

    def test_read_blocked_by_symbolic_store(self):
        arr = T.array("A", bytes(8))
        st_ = T.store(arr, T.var("i"), T.const(9, 8))
        read = T.read(st_, T.const(3))
        assert read.op == "read"  # cannot see through

    def test_symbolic_index_stays_symbolic(self):
        arr = T.array("A", bytes(8))
        assert T.read(arr, T.var("i")).op == "read"

    def test_store_into_non_array_rejected(self):
        with pytest.raises(SolverError):
            T.store(T.var("x"), T.const(0), T.const(0))

    def test_chain_length(self):
        arr = T.array("A", bytes(4))
        node = arr
        for i in range(5):
            node = T.store(node, T.var(f"i{i}"), T.const(1, 8))
        assert T.chain_length(node) == 5
        assert T.base_array(node) is arr

    def test_symbolic_store_count(self):
        arr = T.array("A", bytes(4))
        node = T.store(arr, T.const(0), T.const(1, 8))
        node = T.store(node, T.var("i"), T.const(2, 8))
        assert T.symbolic_store_count(node) == 1


class TestFreeVars:
    def test_leaf_vars(self):
        assert T.var("a").free_vars() == frozenset({"a"})
        assert T.const(1).free_vars() == frozenset()

    def test_compound(self):
        t = T.binop("add", T.var("a"),
                    T.binop("mul", T.var("b"), T.const(2)))
        assert t.free_vars() == frozenset({"a", "b"})

    def test_through_arrays(self):
        arr = T.array("A", bytes(4))
        st_ = T.store(arr, T.var("i"), T.var("v"))
        assert T.read(st_, T.var("j")).free_vars() == \
            frozenset({"i", "v", "j"})


class TestWidths:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
           st.sampled_from((8, 16, 32, 64)))
    def test_binop_width_bounds_value(self, a, b, w):
        t = T.binop("add", T.const(a), T.const(b), w)
        assert t.value < (1 << t.width)

    def test_term_size(self):
        t = T.binop("add", T.var("a"), T.var("b"))
        assert T.term_size(t) == 3
