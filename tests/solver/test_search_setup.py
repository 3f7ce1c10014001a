"""The search's set-up against its ``iter_nodes``-based original.

``_Search`` reads per-term facts (the sorted free variables, the
``concat`` nodes of variables) that each term computes once.  The
functions below are the set-up as it walked every constraint's nodes
on every query; on random constraint lists, with random variables
already assigned, both give the same word groups (the same nodes), the
same variable order, buckets and candidate sources.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import terms as T
from repro.solver.budget import Budget
from repro.solver.solver import _Search

NAMES = tuple(f"in#{i}" for i in range(6))


def _free(term):
    return {node.args[0] for node in T.iter_nodes([term])
            if node.op == "var"}


def walked_word_groups(active, env):
    groups = {}
    for node in T.iter_nodes(active):
        if node.op != "concat":
            continue
        names = []
        for part in node.args:
            if part.op == "var" and part.args[0] not in env:
                names.append(part.args[0])
            else:
                names = None
                break
        if not names or len(set(names)) != len(names):
            continue
        key = tuple(names)
        for name in names:
            current = groups.get(name)
            if current is None or len(current[0]) < len(key):
                groups[name] = (key, node)
    consistent = {}
    for name, (key, node) in groups.items():
        if all(groups.get(n, (None,))[0] == key for n in key):
            consistent[name] = (key, node)
    return consistent


def walked_variable_order(active, env, groups):
    order = []
    seen = set(env)
    for constraint in active:
        for name in sorted(_free(constraint)):
            if name in seen:
                continue
            if name in groups:
                for member in groups[name][0]:
                    if member not in seen:
                        seen.add(member)
                        order.append(member)
            else:
                seen.add(name)
                order.append(name)
    return order


def walked_buckets(active, order):
    position = {name: i for i, name in enumerate(order)}
    buckets = [[] for _ in order]
    for constraint in active:
        free = [position[n] for n in _free(constraint) if n in position]
        if not free:
            buckets and buckets[0].append(constraint)
            continue
        buckets[max(free)].append(constraint)
    return buckets


@st.composite
def constraint_lists(draw):
    """Constraints over a few byte variables: comparisons of words
    (concats of variables, some repeated or mixed with constants, often
    the same length and sharing a variable, so that which one a walk
    meets first decides a group), their sums and table reads, sharing
    subterms."""
    pool = [T.var(name) for name in NAMES]
    words = []
    for _ in range(draw(st.integers(1, 5))):
        parts = [draw(st.sampled_from(pool[:4])) if draw(st.integers(0, 5))
                 else T.const(draw(st.integers(0, 255)), 8)
                 for _ in range(draw(st.integers(2, 3)))]
        words.append(T.concat(parts))
    table = T.array("T", bytes(range(16)))
    terms = pool + words
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("add", "add", "read", "extract",
                                     "trunc")))
        term = draw(st.sampled_from(terms))
        if kind == "add":
            terms.append(T.binop("add", term, draw(st.sampled_from(
                words + terms[len(pool):]))))
        elif kind == "read":
            terms.append(T.read(table, term))
        elif kind == "extract":
            terms.append(T.extract(term, draw(st.integers(0, 3))))
        else:
            terms.append(T.trunc(term, 16))
    constraints = []
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(("eq", "ne", "ult", "uge")))
        constraints.append(T.cmp(op, draw(st.sampled_from(terms)),
                                 T.const(draw(st.integers(0, 600)))))
    assigned = draw(st.sets(st.sampled_from(NAMES), max_size=3))
    return constraints, {name: 1 for name in assigned}


class TestSetUpMatchesTheWalk:
    @settings(max_examples=300, deadline=None)
    @given(constraint_lists(), st.randoms(use_true_random=False))
    def test_same_groups_order_buckets_and_sources(self, case, rng):
        constraints, env = case
        with T.term_scope():
            # rebuilt inside a fresh space, so no term has its facts yet
            constraints = [T.deserialize_term(T.serialize_term(c))
                           for c in constraints]
            search = _Search(constraints, Budget(10 ** 9))
            search.env = dict(env)
            active = [c for c in search.constraints if not c.is_const]
            for _ in range(2):  # the second pass reads computed facts
                groups = search._word_groups(active)
                expected = walked_word_groups(active, env)
                assert groups.keys() == expected.keys()
                for name, (key, node) in groups.items():
                    assert key == expected[name][0]
                    assert node is expected[name][1]
                order = search._variable_order(active, groups)
                assert order == walked_variable_order(active, env, groups)
                buckets = search._bucket_constraints(active, order)
                assert buckets == walked_buckets(active, order)
                sources = search._candidate_sources(buckets, order)
                assert sources == {
                    name: [c for bucket in buckets for c in bucket
                           if name in _free(c)] for name in order}
                rng.shuffle(active)
