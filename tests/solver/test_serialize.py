"""Term serialize → deserialize → re-intern round trip.

Disk-cache keys are digests of the canonical serialization, so these
properties are load-bearing: the round trip must preserve structural
equality and hashing *across term scopes*, structurally equal terms
must serialize identically regardless of how their DAGs are shared,
and deep terms must not blow the recursion limit.
"""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.solver import terms as T
from repro.solver.terms import deserialize_term, serialize_term, term_digest


@pytest.fixture(autouse=True)
def fresh_terms():
    with T.term_scope():
        yield


def sample_terms():
    a, b = T.var("a"), T.var("b")
    arr = T.array("tbl", bytes(range(16)))
    return [
        T.const(0),
        T.const(255, 8),
        a,
        T.cmp("eq", a, T.const(5), 8),
        T.binop("add", a, T.binop("xor", b, T.const(3), 8), 8),
        T.read(T.store(arr, a, b), T.binop("add", a, T.const(1))),
        T.trunc(T.concat([a, b]), 8),
        T.sext(a, 8),
    ]


class TestRoundTrip:
    def test_samples_round_trip(self):
        for term in sample_terms():
            text = serialize_term(term)
            back = deserialize_term(text)
            assert back == term
            assert hash(back) == hash(term)
            assert back is term  # re-interned into the live space

    def test_round_trip_across_scopes(self):
        # serialize in one scope, deserialize in a brand-new one: the
        # rebuilt term must be structurally equal and hash-stable even
        # though the intern tables share nothing
        originals = sample_terms()
        texts = [serialize_term(t) for t in originals]
        digests = [term_digest(t) for t in originals]
        with T.term_scope():
            rebuilt = [deserialize_term(text) for text in texts]
            for term, original in zip(rebuilt, originals):
                assert term == original
                assert hash(term) == hash(original)
            assert [term_digest(t) for t in rebuilt] == digests

    def test_canonical_across_sharing(self):
        # same structure, different DAG sharing: one term reuses a
        # single subterm node, the other builds two separate-but-equal
        # subterms — the canonical form must not see the difference
        a = T.var("a")
        shared = T.binop("add", a, T.const(1), 8)
        t1 = T.binop("xor", shared, shared, 8)
        with T.term_scope():
            left = T.binop("add", T.var("a"), T.const(1), 8)
            right = T.binop("add", T.var("a"), T.const(1), 8)
            t2 = T.binop("xor", left, right, 8)
            assert serialize_term(t2) == serialize_term(t1)
            assert term_digest(t2) == term_digest(t1)

    def test_distinct_terms_distinct_serializations(self):
        texts = {serialize_term(t) for t in sample_terms()}
        assert len(texts) == len(sample_terms())

    def test_width_distinguishes(self):
        assert serialize_term(T.const(1, 8)) != serialize_term(T.const(1, 16))
        assert term_digest(T.var("a", 8)) != term_digest(T.var("a", 16))

    def test_deep_term_no_recursion(self):
        node = T.var("x")
        for i in range(2 * sys.getrecursionlimit()):
            node = T.binop("add", node, T.const(i & 0xFF), 8)
        back = deserialize_term(serialize_term(node))
        assert back == node

    def test_array_bytes_round_trip(self):
        arr = T.array("tbl", bytes([7, 8, 9]))
        back = deserialize_term(serialize_term(arr))
        assert back == arr
        assert back.args[1] == bytes([7, 8, 9])

    def test_prov_excluded(self):
        a = T.cmp("eq", T.var("a"), T.const(5), 8)
        before = serialize_term(a)
        a.prov = ("pp", "reg", 1)
        assert serialize_term(a) == before


class TestErrors:
    def test_empty_rejected(self):
        with pytest.raises(SolverError):
            deserialize_term("[]")

    def test_garbage_rejected(self):
        with pytest.raises((SolverError, json.JSONDecodeError, ValueError)):
            deserialize_term("not json")

    @pytest.mark.parametrize("text", [
        # a raw int where binop and trunc take a term
        '[["var",[["s","a"]],8],["add",[["t",0],12345,64],64]]',
        '[["trunc",[99,8],8]]',
        # a term where a width or a leaf's value goes
        '[["var",[["s","a"]],8],["add",[["t",0],["t",0],["t",0]],64]]',
        '[["var",[["s","a"]],8],["const",[["t",0]],8]]',
        '[["var",[["s","a"]],8],["concat",[["t",0],7],16]]',
    ])
    def test_argument_kinds_checked(self, text):
        """Keys hold the ids of term arguments, so a node's arguments
        must be terms exactly where its op takes terms."""
        with pytest.raises(SolverError, match="malformed"):
            deserialize_term(text)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["add", "sub", "xor", "and"]),
                          st.integers(0, 255)),
                min_size=0, max_size=12),
       st.sampled_from(["a", "b", "c"]))
def test_random_chains_round_trip(ops, name):
    with T.term_scope():
        node = T.var(name)
        for op, value in ops:
            node = T.binop(op, node, T.const(value), 8)
        text = serialize_term(node)
        digest = term_digest(node)
        assert deserialize_term(text) == node
    with T.term_scope():
        rebuilt = deserialize_term(text)
        assert term_digest(rebuilt) == digest
