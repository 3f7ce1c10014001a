"""Three-valued evaluation of terms under partial assignments.

``tv_eval(term, env, budget)`` returns the concrete value of ``term``
when every relevant input variable is assigned in ``env``, or ``None``
when the value is still unknown.  Every node visited charges the budget;
walking a symbolic write chain charges per store, and an unknown index
into an array charges proportionally to the object size.  These charges
are the cost model that makes the paper's two complexity sources (chain
length, object size) produce genuine solver timeouts.

The reference evaluator is an *iterative* walker (explicit work stack):
symbolic values in loop-heavy programs grow into terms tens of thousands
of nodes deep, far past Python's recursion limit.  ``ite`` only
evaluates its taken branch; ``read`` walks its store chain lazily.

Most constraint terms are small, so the walker's per-call set-up (memo
dict, phase-tagged stack, one charge per node) costs more than their
arithmetic.  On its first evaluation a term is therefore *compiled*, if
it qualifies, into a nest of closures kept in its ``_compiled`` slot.  A
term qualifies when it has no ``ite``/``read``/``store``/``array`` node
(so the walker visits every node), no interior node reachable twice
(closures re-evaluate shared subterms; shared ``const``/``var`` leaves
cost one lookup each), and at most :data:`COMPILE_MAX_DEPTH` levels (the
closures recurse once per level).  The walker charges such a term one
unit per distinct node, so a compiled call pays that count in a single
``charge`` and then runs the closures, which may short-circuit freely.
A call whose charge would cross the budget's limit runs the walker, so
totals, values and the point (and ``spent``) of every
:class:`~repro.errors.SolverTimeout` are identical to the walker's.
Lazy, shared and deep terms always run the walker.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import SolverError
from ..ir.ops import BINOPS, CMPS, apply_binop, apply_cmp
from ..ir.types import mask, sign_extend
from .budget import Budget
from .terms import BINOP_OPS, CMP_OPS, Term

#: Charge per store node walked in a chain.
CHAIN_STEP_COST = 2
#: Charge for an unresolved (unknown-index) array access, per this many
#: bytes of the object: bigger objects -> more case splitting.
OBJECT_BYTES_PER_UNIT = 16
#: Deepest term the compiled path takes (levels, root included).
COMPILE_MAX_DEPTH = 32

Assignment = Dict[str, int]
Compiled = Callable[[Assignment], Optional[int]]

_UNKNOWN = object()  # sentinel in the memo: evaluated, value unknown
#: ``Term._compiled`` of a term the compiled path declined
_DECLINED = ()
_LAZY_OPS = frozenset(("ite", "read", "store", "array"))
_DIV_OPS = frozenset(("udiv", "sdiv", "urem", "srem"))


def tv_eval(term: Term, env: Assignment, budget: Budget) -> Optional[int]:
    """Evaluate ``term``; None means 'unknown under this partial env'."""
    compiled = term._compiled
    if compiled is None:
        compiled = term._compiled = _compile(term)
    if compiled:
        cost, fn = compiled
        if budget.spent + cost <= budget.limit:
            budget.charge(cost)
            return fn(env)
    return _walk(term, env, budget)


def _walk(term: Term, env: Assignment, budget: Budget) -> Optional[int]:
    """The iterative walker: every compiled term's reference."""
    memo: Dict[int, object] = {}
    _run(term, env, budget, memo)
    value = memo[id(term)]
    return None if value is _UNKNOWN else value


# ----------------------------------------------------------------------
# compiled path

class _Decline(Exception):
    """The term is lazy, shared or too deep for the compiled path."""


def _compile(term: Term) -> tuple:
    """``(distinct nodes, closure)`` for a qualifying term, else declined.

    Idempotent: threads racing on one term at worst compile it twice.
    """
    seen: Set[int] = set()
    try:
        fn = _closure(term, seen, COMPILE_MAX_DEPTH)
    except _Decline:
        return _DECLINED
    return len(seen), fn


def _closure(node: Term, seen: Set[int], depth: int) -> Compiled:
    op = node.op
    if op == "const":
        seen.add(id(node))
        value = node.args[0]
        return lambda env: value
    if op == "var":
        seen.add(id(node))
        name = node.args[0]
        return lambda env: env.get(name)
    if depth == 1 or op in _LAZY_OPS or id(node) in seen:
        raise _Decline
    seen.add(id(node))
    depth -= 1
    args = node.args
    if op in BINOP_OPS or op in CMP_OPS:
        lhs = _closure(args[0], seen, depth)
        rhs = _closure(args[1], seen, depth)
        if op in CMP_OPS:
            return _strict(CMPS[op], lhs, rhs, args[2])
        if op == "and" or op == "mul":
            return _zero_absorbing(BINOPS[op], lhs, rhs, args[2])
        if op in _DIV_OPS:
            return _division(BINOPS[op], lhs, rhs, args[2])
        return _strict(BINOPS[op], lhs, rhs, args[2])
    if op == "concat":
        return _concat([_closure(part, seen, depth) for part in args])
    if op in _UNARY:
        return _UNARY[op](_closure(args[0], seen, depth), args[1])
    raise _Decline  # unknown op: the walker raises the SolverError


def _strict(apply, lhs: Compiled, rhs: Compiled, width: int) -> Compiled:
    def fn(env):
        lval = lhs(env)
        if lval is None:
            return None
        rval = rhs(env)
        if rval is None:
            return None
        return apply(lval, rval, width)
    return fn


def _zero_absorbing(apply, lhs: Compiled, rhs: Compiled,
                    width: int) -> Compiled:
    """``and``/``mul``: a known zero side makes the result 0."""
    def fn(env):
        lval = lhs(env)
        if lval == 0:
            return 0
        rval = rhs(env)
        if rval == 0:
            return 0
        if lval is None or rval is None:
            return None
        return apply(lval, rval, width)
    return fn


def _division(apply, lhs: Compiled, rhs: Compiled, width: int) -> Compiled:
    """Division by zero is unknown: infeasible on the recorded path."""
    divisor_mask = (1 << width) - 1

    def fn(env):
        lval = lhs(env)
        if lval is None:
            return None
        rval = rhs(env)
        if rval is None or not rval & divisor_mask:
            return None
        return apply(lval, rval, width)
    return fn


def _concat(parts: List[Compiled]) -> Compiled:
    def fn(env):
        total = 0
        shift = 0
        for part in parts:
            value = part(env)
            if value is None:
                return None
            total |= (value & 0xFF) << shift
            shift += 8
        return total
    return fn


def _trunc(inner: Compiled, to_width: int) -> Compiled:
    keep = (1 << to_width) - 1

    def fn(env):
        value = inner(env)
        return None if value is None else value & keep
    return fn


def _sext(inner: Compiled, from_width: int) -> Compiled:
    def fn(env):
        value = inner(env)
        return None if value is None else sign_extend(value, from_width)
    return fn


def _extract(inner: Compiled, byte_index: int) -> Compiled:
    shift = 8 * byte_index

    def fn(env):
        value = inner(env)
        return None if value is None else (value >> shift) & 0xFF
    return fn


#: single-operand ops: factory(operand closure, the op's int argument)
_UNARY = {"trunc": _trunc, "sext": _sext, "extract": _extract}


# ----------------------------------------------------------------------
# the walker

def _lookup(memo, node: Term):
    return memo.get(id(node), None)


def _run(root: Term, env: Assignment, budget: Budget,
         memo: Dict[int, object]) -> None:
    # stack entries: (node, phase, state)
    #   phase 0: first visit (charge, dispatch leaves / push children)
    #   phase 1: children evaluated -> compute (ite: cond ready;
    #            read: index ready / chain-walk re-entry)
    #   phase 2: ite taken-branch ready / read store-value ready
    stack: List[Tuple[Term, int, object]] = [(root, 0, None)]
    while stack:
        node, phase, state = stack.pop()
        key = id(node)
        if phase == 0 and key in memo:
            continue
        op = node.op

        if phase == 0:
            budget.charge(1)
            if op == "const":
                memo[key] = node.args[0]
                continue
            if op == "var":
                value = env.get(node.args[0])
                memo[key] = _UNKNOWN if value is None else value
                continue
            if op == "array":
                memo[key] = _UNKNOWN  # arrays are read through 'read'
                continue
            if op == "ite":
                stack.append((node, 1, None))
                stack.append((node.args[0], 0, None))
                continue
            if op == "read":
                stack.append((node, 1, node.args[0]))
                stack.append((node.args[1], 0, None))
                continue
            # generic: evaluate all Term children, then compute
            stack.append((node, 1, None))
            for arg in node.args:
                if isinstance(arg, Term):
                    stack.append((arg, 0, None))
            continue

        if op == "ite":
            if phase == 1:
                cond = memo[id(node.args[0])]
                if cond is _UNKNOWN:
                    memo[key] = _UNKNOWN
                    continue
                chosen = node.args[1] if cond else node.args[2]
                stack.append((node, 2, chosen))
                stack.append((chosen, 0, None))
            else:
                memo[key] = memo[id(state)]
            continue

        if op == "read":
            if phase == 2:
                memo[key] = memo[id(state)]
                continue
            # phase 1: state is the current chain node to inspect
            index_value = memo[id(node.args[1])]
            if index_value is _UNKNOWN:
                budget.charge(max(1, node.args[0].width
                                  // OBJECT_BYTES_PER_UNIT))
                memo[key] = _UNKNOWN
                continue
            walk = state
            while walk.op == "store":
                budget.charge(CHAIN_STEP_COST)
                st_index, st_value = walk.args[1], walk.args[2]
                st_idx = _lookup(memo, st_index)
                if st_idx is None:
                    # need this store's index first; re-enter afterwards
                    stack.append((node, 1, walk))
                    stack.append((st_index, 0, None))
                    break
                if st_idx is _UNKNOWN:
                    budget.charge(max(1, walk.width
                                      // OBJECT_BYTES_PER_UNIT))
                    memo[key] = _UNKNOWN
                    break
                if st_idx == index_value:
                    stack.append((node, 2, st_value))
                    stack.append((st_value, 0, None))
                    break
                walk = walk.args[0]
            else:
                data = walk.args[1]
                if 0 <= index_value < len(data):
                    memo[key] = data[index_value]
                else:
                    memo[key] = _UNKNOWN  # OOB: infeasible on this path
            continue

        # generic compute (phase 1)
        memo[key] = _compute(node, memo)


def _compute(node: Term, memo) -> object:
    op = node.op
    if op in BINOP_OPS:
        lhs, rhs, opwidth = node.args
        lval = memo[id(lhs)]
        rval = memo[id(rhs)]
        lvalue = None if lval is _UNKNOWN else lval
        rvalue = None if rval is _UNKNOWN else rval
        if op == "and" and (lvalue == 0 or rvalue == 0):
            return 0
        if op == "mul" and (lvalue == 0 or rvalue == 0):
            return 0
        if lvalue is None or rvalue is None:
            return _UNKNOWN
        if op in _DIV_OPS and mask(rvalue, opwidth) == 0:
            # division by zero cannot occur on the recorded path; a
            # candidate assignment that produces it is simply infeasible.
            return _UNKNOWN
        return apply_binop(op, lvalue, rvalue, opwidth)
    if op in CMP_OPS:
        lhs, rhs, opwidth = node.args
        lval = memo[id(lhs)]
        rval = memo[id(rhs)]
        if lval is _UNKNOWN or rval is _UNKNOWN:
            return _UNKNOWN
        return apply_cmp(op, lval, rval, opwidth)
    if op == "trunc":
        value = memo[id(node.args[0])]
        return _UNKNOWN if value is _UNKNOWN else mask(value, node.args[1])
    if op == "sext":
        value = memo[id(node.args[0])]
        return _UNKNOWN if value is _UNKNOWN \
            else sign_extend(value, node.args[1])
    if op == "concat":
        total = 0
        for i, part in enumerate(node.args):
            value = memo[id(part)]
            if value is _UNKNOWN:
                return _UNKNOWN
            total |= mask(value, 8) << (8 * i)
        return total
    if op == "extract":
        value = memo[id(node.args[0])]
        if value is _UNKNOWN:
            return _UNKNOWN
        return (value >> (8 * node.args[1])) & 0xFF
    if op == "store":
        return _UNKNOWN  # arrays are read through 'read'
    raise SolverError(f"cannot evaluate {op!r}")
