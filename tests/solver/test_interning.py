"""Hash-consing: one object per structure per term space.

Terms are built from random recipes through every constructor: a
recipe is a list of steps, each naming a constructor and the earlier
results it takes.  The same recipe built twice in one space gives the
same objects; built in two spaces it gives equal, equally hashed,
distinct objects.  Built from children of several spaces (or of one
space before ``clear_term_cache()``), it still leaves one object per
structure in the building space, whose terms hold only that space's
terms as children.  ``serialize_term``/``deserialize_term`` land on the
same objects.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.solver import terms as T

WIDTHS = (1, 8, 16, 32, 64)
NAMES = ("in#0", "in#1", "in#2", "clock#0")

#: steps that take term arguments: (kind, number of term arguments)
_ARITY = {"binop": 2, "cmp": 2, "trunc": 1, "sext": 1, "extract": 1,
          "ite": 3, "not": 1, "bool": 1, "concat": 3, "store": 3,
          "read": 2}


@st.composite
def recipes(draw, max_steps=24):
    """Leaves first, then steps over earlier results.  Each argument is
    ``(index, foreign)``: ``foreign`` asks a mixed build to take that
    argument from another space's result."""
    steps = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(("const", "var", "array")))
        if kind == "const":
            steps.append(("const", draw(st.integers(0, 300)),
                          draw(st.sampled_from(WIDTHS))))
        elif kind == "var":
            steps.append(("var", draw(st.sampled_from(NAMES))))
        else:
            steps.append(("array", draw(st.sampled_from("AB")),
                          draw(st.binary(min_size=1, max_size=6))))
    for _ in range(draw(st.integers(1, max_steps))):
        kind = draw(st.sampled_from(sorted(_ARITY) + ["const", "var"]))
        if kind == "const":
            steps.append(("const", draw(st.integers(0, 3)), 64))
            continue
        if kind == "var":
            steps.append(("var", draw(st.sampled_from(NAMES))))
            continue
        arity = _ARITY[kind]
        if kind == "concat":
            arity = draw(st.integers(2, 4))
        args = tuple((draw(st.integers(0, len(steps) - 1)),
                      draw(st.booleans())) for _ in range(arity))
        if kind in ("binop", "cmp"):
            ops = T.BINOP_OPS if kind == "binop" else T.CMP_OPS
            extra = (draw(st.sampled_from(sorted(ops))),
                     draw(st.sampled_from(WIDTHS)))
        elif kind in ("trunc", "sext"):
            extra = (draw(st.sampled_from(WIDTHS[1:])),)
        elif kind == "extract":
            extra = (draw(st.integers(0, 8)),)
        else:
            extra = ()
        steps.append((kind, args, extra))
    return steps


def build(recipe, foreign=None):
    """The recipe's results, built in the current space; with
    ``foreign`` (another build of the same recipe), each argument marked
    foreign is taken from it instead."""
    out = []

    def arg(ref):
        index, mixed = ref
        if foreign is not None and mixed:
            return foreign[index]
        return out[index]

    for step in recipe:
        kind = step[0]
        if kind == "const":
            out.append(T.const(step[1], step[2]))
            continue
        if kind == "var":
            out.append(T.var(step[1]))
            continue
        if kind == "array":
            out.append(T.array(step[1], step[2]))
            continue
        _, refs, extra = step
        args = [arg(ref) for ref in refs]
        try:
            out.append(_construct(kind, args, extra))
        except SolverError:  # a constant division by zero, a bad array
            out.append(T.var("fallback"))
    return out


def _construct(kind, args, extra):
    if kind == "binop":
        return T.binop(extra[0], args[0], args[1], extra[1])
    if kind == "cmp":
        return T.cmp(extra[0], args[0], args[1], extra[1])
    if kind == "trunc":
        return T.trunc(args[0], extra[0])
    if kind == "sext":
        return T.sext(args[0], extra[0])
    if kind == "extract":
        return T.extract(args[0], extra[0])
    if kind == "ite":
        return T.ite(T.bool_term(args[0]), args[1], args[2])
    if kind == "not":
        return T.not_(T.bool_term(args[0]))
    if kind == "bool":
        return T.bool_term(args[0])
    if kind == "concat":
        return T.concat(args)
    if kind == "store":
        return T.store(args[0], args[1], args[2])
    return T.read(args[0], args[1])


def _singleton(term):
    return term is T.TRUE or term is T.FALSE


def assert_canonical(results):
    """One object per structure in the current space's table, every
    child of a table term is the table's term of its structure, and
    rebuilding any of ``results`` gives the table's term, which is the
    result itself if the table holds it.  A constructor that returns one
    of its arguments unchanged (``x + 0``, a ``trunc`` to a wider width,
    a part of a ``concat``) returns it as given, from whatever space."""
    table = T.current_space().table
    by_text = {}
    for term in table.values():
        text = T.serialize_term(term)
        assert by_text.setdefault(text, term) is term, text
    held = {id(term) for term in table.values()}
    for term in table.values():
        for child in term.args:
            if isinstance(child, T.Term):
                assert id(child) in held, (term, child)
    for result in results:
        rebuilt = T.deserialize_term(T.serialize_term(result))
        assert rebuilt == result and id(rebuilt) in held
        if id(result) in held:
            assert rebuilt is result


class TestInterningOracle:
    @settings(max_examples=150, deadline=None)
    @given(recipes())
    def test_twice_in_one_space_gives_the_same_objects(self, recipe):
        with T.term_scope():
            first, second = build(recipe), build(recipe)
            assert all(a is b for a, b in zip(first, second))
            assert_canonical(first)

    @settings(max_examples=150, deadline=None)
    @given(recipes())
    def test_two_spaces_give_equal_distinct_objects(self, recipe):
        with T.term_scope():
            first = build(recipe)
        with T.term_scope():
            second = build(recipe)
        for a, b in zip(first, second):
            assert a == b and b == a
            assert hash(a) == hash(b)
            assert a is not b or _singleton(a)

    @settings(max_examples=150, deadline=None)
    @given(recipes())
    def test_mixed_spaces_keep_one_object_per_structure(self, recipe):
        with T.term_scope():
            other = build(recipe)
        with T.term_scope():
            mixed = build(recipe, foreign=other)
            own = build(recipe)
            assert_canonical(mixed + own)
        for a, b in zip(own, other):
            assert a == b and hash(a) == hash(b)

    @settings(max_examples=100, deadline=None)
    @given(recipes())
    def test_terms_from_before_a_reset_are_adopted(self, recipe):
        with T.term_scope():
            before = build(recipe)
            T.clear_term_cache()
            mixed = build(recipe, foreign=before)
            own = build(recipe)
            assert_canonical(mixed + own)
            for old, new in zip(before, own):
                assert old == new and hash(old) == hash(new)
                assert old is not new or _singleton(old)

    @settings(max_examples=100, deadline=None)
    @given(recipes())
    def test_deserialized_terms_are_the_constructed_ones(self, recipe):
        with T.term_scope():
            texts = [T.serialize_term(term) for term in build(recipe)]
        with T.term_scope():
            built = build(recipe)
            for text, term in zip(texts, built):
                assert T.deserialize_term(text) is term


class TestAdoption:
    def test_foreign_child_is_replaced_by_the_spaces_own(self):
        with T.term_scope():
            outer = T.binop("add", T.var("x"), T.const(1))
        with T.term_scope():
            mine = T.binop("add", T.var("x"), T.const(1))
            parent = T.cmp("eq", outer, T.const(7))
            assert parent.args[0] is mine
            assert T.cmp("eq", mine, T.const(7)) is parent

    def test_a_copy_keeps_hash_and_provenance(self):
        with T.term_scope():
            outer = T.binop("add", T.var("x"), T.const(1))
            outer.prov = ("point", "%r", 8)
        with T.term_scope():
            parent = T.cmp("eq", outer, T.const(7))
            copy = parent.args[0]
            assert copy is not outer and copy == outer
            assert hash(copy) == hash(outer) and copy.prov == outer.prov
            assert T.binop("add", T.var("x"), T.const(1)) is copy

    def test_directly_built_terms_are_adopted(self):
        with T.term_scope():
            loose = T.Term("var", ("x",), 8)
            node = T.binop("add", loose, T.const(1))
            assert node.args[1] is T.var("x") is not loose
            assert hash(loose) == hash(T.var("x"))

    def test_a_dropped_space_is_freed_without_the_collector(self):
        """Terms record a token of their table, not the table, so a
        table and its terms form no reference cycle."""
        import gc

        gc.disable()
        try:
            gc.collect()
            with T.term_scope():
                node = T.var("x")
                for value in range(50):
                    node = T.binop("add", node, T.const(value))
                T.cmp("eq", node, T.const(0))
            del node
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_deep_foreign_chains_adopt_without_recursion(self):
        with T.term_scope():
            node = T.var("x")
            for _ in range(4000):
                node = T.binop("add", node, T.var("y"))
        with T.term_scope():
            top = T.cmp("eq", node, T.const(0))
            assert top.args[0] == node
            assert T.deserialize_term(T.serialize_term(node)) \
                is top.args[0]
