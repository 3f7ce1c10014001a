"""Hash-consed bitvector/array terms: the solver's (and symex's) language.

Term kinds
----------

========== =============================== ==========================
op          args                            width
========== =============================== ==========================
const       (value,)                        value width (bits)
var         (name,)                         8 (input bytes)
array       (name, data_bytes)              object size in *bytes*
store       (array, index, value)           object size in *bytes*
read        (array, index)                  8
add..ashr   (lhs, rhs, opwidth)             64
cmp ops     (lhs, rhs, opwidth)             1
trunc       (value, to_width)               64
sext        (value, from_width)             64
concat      (byte0, byte1, ... LSB first)   8 * n
extract     (value, byte_index)             8
ite         (cond, if_true, if_false)       64
========== =============================== ==========================

Terms are immutable and interned: within one :class:`TermSpace`,
structural equality is identity, which makes memoized traversals cheap.
Each term optionally carries *provenance* — the program point whose
destination register held this value — which is what turns a
constraint-graph node into something ER's runtime can record with a
``ptwrite``.

Interning is **scoped**, not process-global: constructors intern into
the context-local active :class:`TermSpace` (installed with
:func:`term_scope`), falling back to a module-level default space.  A
symbolic-execution session opens its own space, so concurrent engines in
one process cannot cross-pollinate their intern tables, and dropping a
session's space can never invalidate terms held by another session.
Because spaces are scoped, ``Term.__eq__`` is *structural* with an
identity fast path: two structurally equal terms from different spaces
(e.g. a stall term kept across engine runs) still compare and hash
equal.

A space's table keys each term by its op, its raw arguments, the
*identity* of each term child and its width, a tuple of strings, ints
and bytes that hashes in C.  Within one table that key is exact: every
child is itself interned there, and the table keeps it alive through
its parent.  A term records the *generation* of the table that
interned it (a token per table, which does not refer to the table, so
a dropped space is freed without the cyclic collector), and a
constructor handed a child of another generation (another space, or
its own space before :meth:`TermSpace.reset`) first *adopts* it: it
takes the table's term of that structure, interning a copy if there is
none.  So within a space one structure is one object.  ``Term._hash`` is
computed once, from the op, the raw arguments, the children's hashes
and the width, so it is structural and equal terms of any space hash
equal.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..errors import SolverError
from ..ir.ops import apply_binop, apply_cmp
from ..ir.types import sign_extend

BINOP_OPS = frozenset((
    "add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
    "and", "or", "xor", "shl", "lshr", "ashr",
))
CMP_OPS = frozenset((
    "eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge",
))


class Term:
    """An immutable, interned term node.

    The constructors below build terms; ``Term(op, args, width)`` makes
    one outside every table, which a constructor adopts like any other
    foreign child."""

    __slots__ = ("op", "args", "width", "is_const", "prov", "_hash",
                 "_gen", "_free", "_vars", "_words", "_compiled")

    def __init__(self, op: str, args: tuple, width: int,
                 hash_: Optional[int] = None, gen: object = None):
        self.op = op
        self.args = args
        self.width = width
        self.is_const = op == "const"
        #: provenance: (ProgramPoint, register, size_bytes) or None
        self.prov = None
        self._hash = _structural_hash(op, args, width) if hash_ is None \
            else hash_
        #: the generation of the intern table holding this term (None:
        #: built directly)
        self._gen = gen
        self._free: Optional[FrozenSet[str]] = None
        self._vars: Optional[Tuple[str, ...]] = None
        self._words: Optional[Tuple[Term, ...]] = None
        #: the evaluator's compiled form, built on first evaluation
        #: (see :mod:`repro.solver.evaluator`); None until then
        self._compiled = None

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        """Structural equality with an identity fast path.

        Terms interned in the same :class:`TermSpace` are identical, so
        same-space comparisons never walk the structure.  Cross-space
        comparisons (a stall term held across engine runs, a cache key
        built in a previous session) fall back to an *iterative*
        structural walk — terms grow far past the recursion limit, so
        nothing here may recurse.  The walk compares each pair of nodes
        once: terms are DAGs, and one with 24 levels of ``t = t ^ (t +
        b)`` has 2^24 paths.
        """
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if self._hash != other._hash:
            return False
        stack = [(self, other)]
        pushed = {(id(self), id(other))}
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.op != b.op or a.width != b.width or \
                    len(a.args) != len(b.args):
                return False
            for x, y in zip(a.args, b.args):
                if isinstance(x, Term) and isinstance(y, Term):
                    if x is not y:
                        if x._hash != y._hash:
                            return False
                        pair = (id(x), id(y))
                        if pair not in pushed:
                            pushed.add(pair)
                            stack.append((x, y))
                elif type(x) is not type(y) or x != y:
                    return False
        return True

    def __repr__(self):
        """``op(arg, ...)`` with leaves as ``bv(..)``, ``λname`` and
        ``array(name[size])``.  Written out in one pass without
        recursion, like ``__eq__``: solver errors and banned-value keys
        render terms far deeper than the recursion limit."""
        out: List[str] = []
        stack: list = [self]   # terms to render and text to emit
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
            elif item.op == "const":
                out.append(f"bv({item.args[0]})")
            elif item.op == "var":
                out.append(f"λ{item.args[0]}")
            elif item.op == "array":
                out.append(f"array({item.args[0]}[{item.width}])")
            else:
                out.append(f"{item.op}(")
                stack.append(")")
                for i in range(len(item.args) - 1, -1, -1):
                    arg = item.args[i]
                    stack.append(arg if isinstance(arg, Term) else repr(arg))
                    if i:
                        stack.append(", ")
        return "".join(out)

    @property
    def value(self) -> int:
        if self.op != "const":
            raise SolverError(f"not a constant: {self!r}")
        return self.args[0]

    def free_vars(self) -> FrozenSet[str]:
        """Names of symbolic input variables occurring in this term."""
        if self._free is None:
            _derive_facts(self)
        return self._free

    def sorted_vars(self) -> Tuple[str, ...]:
        """:meth:`free_vars` in sorted order, computed once."""
        names = self._vars
        if names is None:
            names = self._vars = tuple(sorted(self.free_vars()))
        return names

    def word_nodes(self) -> Tuple["Term", ...]:
        """The ``concat`` nodes reachable from this term whose parts are
        all ``var`` terms, in :func:`iter_nodes` order."""
        if self._words is None:
            _derive_facts(self)
        return self._words


_NO_VARS: FrozenSet[str] = frozenset()


def _derive_facts(root: Term) -> None:
    """Set ``_free`` and ``_words`` on ``root`` and on every node below
    it that lacks them, children first, each from its children's.

    ``iter_nodes`` meets a node, then its last child's nodes, then each
    earlier child's nodes that it has not met yet, so a node's word
    nodes are its children's in that order, without repeats.
    Iterative: loop-grown terms exceed the recursion limit."""
    stack = [root]
    while stack:
        node = stack[-1]
        if node._free is not None:
            stack.pop()
            continue
        children = [arg for arg in node.args if isinstance(arg, Term)]
        pending = [child for child in children if child._free is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if node.op == "var":
            node._free = frozenset(node.args[:1])
            node._words = ()
            continue
        free = _NO_VARS
        for child in children:
            names = child._free
            if not names <= free:
                free = free | names if free else names
        words: Tuple[Term, ...] = ()
        if node.op == "concat" and all(part.op == "var"
                                       for part in children):
            words = (node,)
        else:
            for child in reversed(children):
                more = child._words
                if more and more is not words:
                    if words:
                        met = set(map(id, words))
                        more = tuple(w for w in more if id(w) not in met)
                    words += more
        node._free = free
        node._words = words


def _structural_hash(op: str, args: tuple, width: int) -> int:
    """The hash of a term: of its op, its raw arguments, its children's
    hashes and its width, so that it never depends on identity."""
    return hash((op, *[arg._hash if isinstance(arg, Term) else arg
                       for arg in args], width))


#: forward declarations — rebound to interned singletons below, after
#: the first space exists; TermSpace._seed checks for the None window.
TRUE: Optional[Term] = None
FALSE: Optional[Term] = None


class TermSpace:
    """One intern table: terms constructed under it share identity.

    A space is cheap (one dict) and lives exactly as long as the session
    that opened it — a symex engine run, a whole reconstruction in a
    parallel worker, a test.  The TRUE/FALSE singletons are pre-seeded
    into every space so identity with them holds everywhere.
    """

    __slots__ = ("table", "gen")

    def __init__(self):
        self.table: Dict[tuple, Term] = {}
        #: the table's token, which its terms record
        self.gen = object()
        self._seed()

    def _seed(self) -> None:
        if TRUE is not None:  # module fully initialised
            self.table[("const", 1, 1)] = TRUE
            self.table[("const", 0, 1)] = FALSE

    def reset(self) -> None:
        """Drop every interned term except the TRUE/FALSE singletons.

        The space takes a new table and generation rather than clearing
        the old table: terms of the old one stay valid, and a
        constructor adopts them like children from any other space."""
        self.table = {}
        self.gen = object()
        self._seed()

    def __len__(self) -> int:
        return len(self.table)


#: fallback space for code running outside any term_scope (module-level
#: constants, ad-hoc library use, legacy tests)
_DEFAULT_SPACE = TermSpace()

#: the context-local active space; the default space when no scope is
#: open.  ContextVars are per-thread (and per-async-task), so concurrent
#: sessions in one process each see their own space.
_ACTIVE: "ContextVar[TermSpace]" = ContextVar(
    "repro_term_space", default=_DEFAULT_SPACE)
_active = _ACTIVE.get


def current_space() -> "TermSpace":
    """The space constructors intern into right now."""
    return _active()


@contextmanager
def term_scope(space: Optional["TermSpace"] = None, *,
               reuse_active: bool = False):
    """Install ``space`` (default: a fresh one) for the dynamic extent.

    ``reuse_active=True`` keeps an already-active space instead of
    nesting a new one — a session that is itself part of a larger
    session (e.g. a gap-recovery replay inside a reconstruction) shares
    its parent's intern table.  The default space never counts as
    active.
    """
    if reuse_active:
        active = _active()
        if active is not _DEFAULT_SPACE:
            yield active
            return
    if space is None:
        space = TermSpace()
    token = _ACTIVE.set(space)
    try:
        yield space
    finally:
        _ACTIVE.reset(token)


def clear_term_cache() -> None:
    """Reset the *current scope's* intern table (test isolation).

    Kept for backward compatibility; new code should open a
    :func:`term_scope` instead.  Unlike the old process-global reset,
    this touches only the active space, and live terms from before the
    reset remain structurally equal (``==``) to re-built ones — only
    ``is`` identity with them is given up.
    """
    _active().reset()


def _intern(op: str, args: tuple, width: int) -> Term:
    """The term ``(op, args, width)`` of the current space.  The
    constructors of the hot ops inline this; they build the same keys
    and hashes."""
    space = _active()
    table, gen = space.table, space.gen
    own = []
    key = [op]
    hashed = [op]
    for arg in args:
        if isinstance(arg, Term):
            if arg._gen is not gen:
                arg = _adopt(arg, space)
            key.append(id(arg))
            hashed.append(arg._hash)
        else:
            key.append(arg)
            hashed.append(arg)
        own.append(arg)
    key.append(width)
    hashed.append(width)
    key = tuple(key)
    term = table.get(key)
    if term is None:
        term = table[key] = Term(op, tuple(own), width,
                                 hash(tuple(hashed)), gen)
    return term


def _adopt(term: Term, space: TermSpace) -> Term:
    """The term of ``space`` with ``term``'s structure, where ``term``
    comes from another table.  Nodes the table lacks are interned as
    copies that keep the originals' hashes and provenance."""
    table, gen = space.table, space.gen
    done: Dict[int, Term] = {}  # id(foreign node) -> its term in table
    stack = [term]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        pending = [arg for arg in node.args if isinstance(arg, Term)
                   and arg._gen is not gen and id(arg) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        args = tuple(done.get(id(arg), arg) if isinstance(arg, Term)
                     else arg for arg in node.args)
        key = (node.op, *[id(arg) if isinstance(arg, Term) else arg
                          for arg in args], node.width)
        native = table.get(key)
        if native is None:
            native = table[key] = Term(node.op, args, node.width,
                                       node._hash, gen)
            native.prov = node.prov
        done[id(node)] = native
    return done[id(term)]


def _binary(op: str, lhs: Term, rhs: Term, extra: int, width: int) -> Term:
    """``_intern(op, (lhs, rhs, extra), width)``."""
    space = _active()
    gen = space.gen
    if lhs._gen is not gen:
        lhs = _adopt(lhs, space)
    if rhs._gen is not gen:
        rhs = _adopt(rhs, space)
    key = (op, id(lhs), id(rhs), extra, width)
    table = space.table
    term = table.get(key)
    if term is None:
        term = table[key] = Term(
            op, (lhs, rhs, extra), width,
            hash((op, lhs._hash, rhs._hash, extra, width)), gen)
    return term


def _unary(op: str, child: Term, extra: int, width: int) -> Term:
    """``_intern(op, (child, extra), width)``."""
    space = _active()
    gen = space.gen
    if child._gen is not gen:
        child = _adopt(child, space)
    key = (op, id(child), extra, width)
    table = space.table
    term = table.get(key)
    if term is None:
        term = table[key] = Term(op, (child, extra), width,
                                 hash((op, child._hash, extra, width)), gen)
    return term


def _leaf(key: tuple) -> Term:
    """The leaf ``(op, *args, width)`` = ``key`` of the current space."""
    space = _active()
    term = space.table.get(key)
    if term is None:
        term = space.table[key] = Term(key[0], key[1:-1], key[-1],
                                       hash(key), space.gen)
    return term


# ----------------------------------------------------------------------
# constructors (with inline constant folding / light simplification)

def const(value: int, width: int = 64) -> Term:
    key = ("const", value & ((1 << width) - 1), width)
    space = _active()
    term = space.table.get(key)
    if term is None:
        term = space.table[key] = Term("const", key[1:2], width, hash(key),
                                       space.gen)
    return term


TRUE = const(1, 1)
FALSE = const(0, 1)


def var(name: str, width: int = 8) -> Term:
    return _leaf(("var", name, width))


def array(name: str, data: bytes) -> Term:
    data = bytes(data)
    return _leaf(("array", name, data, len(data)))


def store(arr: Term, index: Term, value_term: Term) -> Term:
    if arr.op not in ("array", "store"):
        raise SolverError(f"store into non-array {arr!r}")
    return _intern("store", (arr, index, value_term), arr.width)


def read(arr: Term, index: Term) -> Term:
    """Read one byte; collapses over the write chain where indices allow."""
    if arr.op not in ("array", "store"):
        raise SolverError(f"read from non-array {arr!r}")
    node = arr
    if index.is_const:
        idx = index.args[0]
        while node.op == "store":
            st_index, st_value = node.args[1], node.args[2]
            if st_index.is_const:
                if st_index.args[0] == idx:
                    return st_value
                node = node.args[0]
                continue
            break  # symbolic store below: cannot see through
        if node.op == "array":
            data = node.args[1]
            if 0 <= idx < len(data):
                return const(data[idx], 8)
    return _intern("read", (arr, index), 8)


_DIVISIONS = frozenset(("udiv", "sdiv", "urem", "srem"))
_COMMUTATIVE = frozenset(("add", "mul", "and", "or", "xor"))


def binop(op: str, lhs: Term, rhs: Term, opwidth: int = 64) -> Term:
    if op not in BINOP_OPS:
        raise SolverError(f"unknown binop {op!r}")
    if lhs.is_const:
        if rhs.is_const:
            if op in _DIVISIONS and \
                    rhs.args[0] & ((1 << opwidth) - 1) == 0:
                raise SolverError(f"constant {op} by zero")
            return const(apply_binop(op, lhs.args[0], rhs.args[0], opwidth),
                         64)
    elif rhs.is_const and op in _COMMUTATIVE:
        # canonicalize: constant on the left for commutative ops
        lhs, rhs = rhs, lhs
    if lhs.is_const:
        value = lhs.args[0] & ((1 << opwidth) - 1)
        if op == "add" and value == 0:
            return _mask_to(rhs, opwidth)
        if op == "mul" and value == 1:
            return _mask_to(rhs, opwidth)
        if op == "mul" and value == 0:
            return const(0, 64)
        if op in ("and",) and value == 0:
            return const(0, 64)
        if op in ("or", "xor") and value == 0:
            return _mask_to(rhs, opwidth)
        # (c1 + (c2 + x)) -> (c1+c2) + x : keeps address bases foldable
        if op == "add" and rhs.op == "add" and rhs.args[2] == opwidth:
            inner_lhs, inner_rhs = rhs.args[0], rhs.args[1]
            if inner_lhs.is_const:
                folded = const(apply_binop("add", lhs.args[0],
                                           inner_lhs.args[0], opwidth), 64)
                return _binary("add", folded, inner_rhs, opwidth,
                               min(64, opwidth))
    return _binary(op, lhs, rhs, opwidth, min(64, opwidth))


def _mask_to(term: Term, opwidth: int) -> Term:
    """x as a width-`opwidth` result: no-op if x already fits."""
    if opwidth >= 64:
        return term
    if term.is_const:
        return const(term.args[0] & ((1 << opwidth) - 1), 64)
    if term.width <= opwidth:
        return term
    return trunc(term, opwidth)


def cmp(op: str, lhs: Term, rhs: Term, opwidth: int = 64) -> Term:
    if op not in CMP_OPS:
        raise SolverError(f"unknown cmp {op!r}")
    if lhs.is_const and rhs.is_const:
        return const(apply_cmp(op, lhs.args[0], rhs.args[0], opwidth), 1)
    if lhs is rhs:
        if op in ("eq", "ule", "uge", "sle", "sge"):
            return TRUE
        if op in ("ne", "ult", "ugt", "slt", "sgt"):
            return FALSE
    # canonicalize eq/ne with constant on the right
    if op in ("eq", "ne") and lhs.is_const:
        lhs, rhs = rhs, lhs
    return _binary(op, lhs, rhs, opwidth, 1)


def trunc(value_term: Term, to_width: int) -> Term:
    if value_term.is_const:
        return const(value_term.args[0] & ((1 << to_width) - 1), 64)
    if value_term.op == "trunc" and value_term.args[1] <= to_width:
        return value_term
    if value_term.width <= to_width:
        return value_term
    return _unary("trunc", value_term, to_width, to_width)


def sext(value_term: Term, from_width: int) -> Term:
    if value_term.is_const:
        return const(sign_extend(value_term.args[0], from_width), 64)
    return _unary("sext", value_term, from_width, 64)


def concat(byte_terms: Iterable[Term]) -> Term:
    """LSB-first byte concatenation (multi-byte loads and inputs)."""
    parts: Tuple[Term, ...] = tuple(byte_terms)
    if not parts:
        raise SolverError("empty concat")
    if len(parts) == 1:
        return parts[0]
    if all(p.is_const for p in parts):
        value = 0
        for i, part in enumerate(parts):
            value |= (part.args[0] & 0xFF) << (8 * i)
        return const(value, 8 * len(parts))
    return _intern("concat", parts, 8 * len(parts))


def extract(value_term: Term, byte_index: int) -> Term:
    """Byte ``byte_index`` (little-endian) of a term."""
    if value_term.is_const:
        return const((value_term.args[0] >> (8 * byte_index)) & 0xFF, 8)
    if value_term.op == "concat" and byte_index < len(value_term.args):
        return value_term.args[byte_index]
    if value_term.op == "concat":
        return const(0, 8)
    if value_term.width <= 8 * byte_index:
        return const(0, 8)
    return _unary("extract", value_term, byte_index, 8)


def ite(cond: Term, if_true: Term, if_false: Term) -> Term:
    if cond.is_const:
        return if_true if cond.value else if_false
    if if_true is if_false:
        return if_true
    return _intern("ite", (cond, if_true, if_false),
                   max(if_true.width, if_false.width))


def not_(cond: Term) -> Term:
    """Boolean negation of a width-1 term."""
    if cond.is_const:
        return FALSE if cond.value else TRUE
    negations = {"eq": "ne", "ne": "eq", "ult": "uge", "uge": "ult",
                 "ule": "ugt", "ugt": "ule", "slt": "sge", "sge": "slt",
                 "sle": "sgt", "sgt": "sle"}
    if cond.op in negations:
        lhs, rhs, opwidth = cond.args
        return cmp(negations[cond.op], lhs, rhs, opwidth)
    return cmp("eq", cond, FALSE, 1)


def bool_term(cond: Term) -> Term:
    """Coerce an arbitrary term to width-1 (non-zero test)."""
    if cond.width == 1:
        return cond
    if cond.is_const:
        return TRUE if cond.value else FALSE
    return cmp("ne", cond, const(0, 64), 64)


# ----------------------------------------------------------------------
# traversal helpers

def iter_nodes(roots: Iterable[Term]) -> Iterable[Term]:
    """Every distinct term node reachable from ``roots`` (post-order-ish)."""
    seen = set()
    stack: List[Term] = [r for r in roots]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        for arg in node.args:
            if isinstance(arg, Term):
                stack.append(arg)


def term_size(term: Term) -> int:
    """Number of distinct nodes reachable from ``term``."""
    return sum(1 for _ in iter_nodes([term]))


def chain_length(arr: Term) -> int:
    """Number of store nodes above the base array."""
    count = 0
    node = arr
    while node.op == "store":
        count += 1
        node = node.args[0]
    return count


def base_array(arr: Term) -> Term:
    node = arr
    while node.op == "store":
        node = node.args[0]
    return node


def symbolic_store_count(arr: Term) -> int:
    """Stores in the chain whose index or value is symbolic."""
    count = 0
    node = arr
    while node.op == "store":
        index, value_term = node.args[1], node.args[2]
        if not index.is_const or not value_term.is_const:
            count += 1
        node = node.args[0]
    return count


# ----------------------------------------------------------------------
# canonical serialization (disk-cache keys cross process boundaries)

def serialize_term(term: Term) -> str:
    """Canonical, injective string form of a term.

    The DAG is flattened into a topologically ordered node list (each
    node ``[op, args, width]``, term arguments as ``["t", index]``
    references) and JSON-encoded with no whitespace.  Nodes are deduped
    *structurally*, not by identity, so two structurally equal terms —
    even from different :func:`term_scope`\\ s, even with different
    internal sharing — serialize to the same string.  That stability is
    what disk-cache keys depend on.  Provenance (``Term.prov``) is
    advisory and deliberately excluded.

    The traversal is iterative: loop-grown terms exceed the recursion
    limit.
    """
    import json as _json

    nodes: List[list] = []
    canon: Dict[tuple, int] = {}     # structural key -> node index
    by_id: Dict[int, int] = {}       # id(term) -> node index (fast path)
    stack: List[Tuple[Term, bool]] = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in by_id:
            continue
        if not ready:
            stack.append((node, True))
            for arg in node.args:
                if isinstance(arg, Term) and id(arg) not in by_id:
                    stack.append((arg, False))
            continue
        encoded: List[object] = []
        for arg in node.args:
            if isinstance(arg, Term):
                encoded.append(("t", by_id[id(arg)]))
            elif isinstance(arg, bytes):
                encoded.append(("b", arg.hex()))
            elif isinstance(arg, str):
                encoded.append(("s", arg))
            else:
                encoded.append(arg)  # int
        key = (node.op, tuple(encoded), node.width)
        index = canon.get(key)
        if index is None:
            index = len(nodes)
            canon[key] = index
            nodes.append([node.op, [list(e) if isinstance(e, tuple) else e
                                    for e in encoded], node.width])
        by_id[id(node)] = index
    return _json.dumps(nodes, separators=(",", ":"))


#: ops whose arguments are all raw values, and ops whose arguments are
#: all terms; the others take terms and then one int
_LEAF_OPS = frozenset(("const", "var", "array"))
_TERM_OPS = frozenset(("store", "read", "concat", "ite"))


def deserialize_term(text: str) -> Term:
    """Rebuild a term from :func:`serialize_term` output.

    The result is interned into the *current* space, so round-tripping
    re-establishes identity with same-space terms and structural
    equality (same hash) with terms from any other space.
    """
    import json as _json

    nodes = _json.loads(text)
    if not nodes:
        raise SolverError("empty serialized term")
    built: List[Term] = []
    for op, encoded, width in nodes:
        args: List[object] = []
        for item in encoded:
            if isinstance(item, list):
                tag, payload = item
                if tag == "t":
                    args.append(built[payload])
                elif tag == "b":
                    args.append(bytes.fromhex(payload))
                elif tag == "s":
                    args.append(payload)
                else:
                    raise SolverError(f"bad serialized arg tag {tag!r}")
            else:
                args.append(item)
        # keys hold the ids of term arguments and the values of raw
        # ones, so a raw int where the op takes a term could match a
        # live term's id
        terms = [isinstance(arg, Term) for arg in args]
        if op in _LEAF_OPS:
            takes = [False] * len(args)
        elif op in _TERM_OPS:
            takes = [True] * len(args)
        else:  # a term or two, then a width or byte index
            takes = [True] * (len(args) - 1) + [False]
        if terms != takes:
            raise SolverError(f"malformed serialized {op!r} node")
        built.append(_intern(op, tuple(args), width))
    return built[-1]


def term_digest(term: Term) -> str:
    """128-bit hex digest of the canonical serialization.

    Disk-cache keys are *sets* of these digests; an entry answers only
    its own set, which is sound exactly because the serialization behind
    the digest is injective.
    """
    import hashlib

    return hashlib.sha256(
        serialize_term(term).encode("ascii")).hexdigest()[:32]
