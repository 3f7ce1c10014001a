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
it qualifies, into one generated function kept in its ``_compiled``
slot.  A term qualifies when it has no ``ite``/``store`` node, every
``read`` reads a bare ``array`` (a constant table), and it has at most
:data:`COMPILE_MAX_DEPTH` levels.  The function computes each distinct
node once, into a local, in one flat body: ``None`` (unknown) passes up
from any operand, except that a known zero operand of ``and``/``mul``
makes the result 0, a zero divisor is unknown, and a table read checks
its bounds.  Its charge is the walker's: one unit per distinct node,
arrays excluded, plus the object-size charge of every ``read`` whose
index is unknown, also of a read whose value a zero ``and``/``mul``
operand discards.  A call whose worst case (every such index unknown)
would cross the budget's limit runs the walker, so totals, values and
the point (and ``spent``) of every :class:`~repro.errors.SolverTimeout`
are identical to the walker's.  ``ite``, store chains, deep terms and
unknown ops always run the walker.

The generated source depends only on the term's *shape*: ops, widths,
table sizes and which nodes are shared.  Constants, variable names and
table bytes are arguments of a factory that one source defines, so
every term of a shape shares one compiled factory (``_FACTORIES``), and
names from ``.eir`` files never reach the source text.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SolverError
from ..ir.ops import (BINOP_EXPRS, CMP_OPERATORS, DIVISIONS, MAGNITUDES,
                      apply_binop, apply_cmp)
from ..ir.types import MASK64, mask, sign_extend
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

_UNKNOWN = object()  # sentinel in the memo: evaluated, value unknown


def tv_eval(term: Term, env: Assignment, budget: Budget) -> Optional[int]:
    """Evaluate ``term``; None means 'unknown under this partial env'."""
    compiled = term._compiled
    if compiled is None:
        compiled = term._compiled = _compile(term)
    return compiled(term, env, budget)


def _walk(term: Term, env: Assignment, budget: Budget) -> Optional[int]:
    """The iterative walker: every compiled term's reference."""
    memo: Dict[int, object] = {}
    _run(term, env, budget, memo)
    value = memo[id(term)]
    return None if value is _UNKNOWN else value


def _walked(term: Term, env: Assignment, budget: Budget) -> Optional[int]:
    """``_walk``, looked up at each call: what a term the compiled path
    declined runs, and what a compiled term runs when its worst case
    would cross the budget's limit."""
    return _walk(term, env, budget)


#: ``Term._compiled`` of a term the compiled path declined
_DECLINED = _walked


# ----------------------------------------------------------------------
# compiled path
#
# ``_compile`` walks a term once and builds its shape key: one entry per
# distinct node, children before parents, each naming its operands by
# their positions (so a shared node is one entry, referred to twice).
# Leaves are ``_CONST``/``_VAR`` markers and a table ``("array", width,
# size)``; their values are the factory's arguments ``c<n>``, in entry
# order.  A generated function binds them as default arguments, not
# closure cells: each cell is one more object the cyclic garbage
# collector tracks, and with cells the compiled terms a table1 round
# keeps alive cost it one more full collection per round.

_CONST = ("const",)
_VAR = ("var",)
_BINARY_OPS = BINOP_OPS | CMP_OPS

#: shape key -> the factory of its generated function
_FACTORIES: Dict[tuple, Callable] = {}
#: shapes the memo holds before it starts over
_FACTORY_LIMIT = 4096

#: the globals of generated code, besides the factory's arguments
_NAMESPACE = {"__builtins__": {}, "walk": _walked}


class _Decline(Exception):
    """The term is lazy, too deep or has an unknown op."""


def _compile(term: Term) -> Callable:
    """The generated ``evaluate(term, env, budget)`` of a qualifying
    term, else :data:`_DECLINED`.

    Idempotent: threads racing on one term at worst compile it twice.
    """
    key: List[tuple] = []
    args: list = []
    try:
        _visit(term, COMPILE_MAX_DEPTH, {}, key, [], args)
    except _Decline:
        return _DECLINED
    key = tuple(key)
    make = _FACTORIES.get(key)
    if make is None:
        if len(_FACTORIES) >= _FACTORY_LIMIT:
            _FACTORIES.clear()
        make = _FACTORIES[key] = _factory(key)
    return make(*args)


def _visit(node: Term, depth: int, seen: Dict[int, int], key: List[tuple],
           heights: List[int], args: list) -> int:
    """The position of ``node``'s entry in ``key``.  Unless ``seen`` has
    it, appends the entries of ``node``'s operands and then its own, and
    each leaf's value to ``args``.  ``heights`` holds each entry's
    levels, at most ``depth`` here."""
    found = seen.get(id(node))
    if found is not None:
        if heights[found] > depth:
            raise _Decline
        return found
    op = node.op
    operands = node.args
    if op in _BINARY_OPS:
        if depth == 1:
            raise _Decline
        lhs = _visit(operands[0], depth - 1, seen, key, heights, args)
        rhs = _visit(operands[1], depth - 1, seen, key, heights, args)
        entry = (op, operands[2], lhs, rhs)
        height = 1 + max(heights[lhs], heights[rhs])
    elif op == "var" or op == "const":
        args.append(operands[0])
        entry = _VAR if op == "var" else _CONST
        height = 1
    elif depth == 1:
        raise _Decline
    elif op == "read":
        table = operands[0]
        if table.op != "array":
            raise _Decline  # a store chain: the walker walks it lazily
        where = seen.get(id(table))
        if where is None:
            where = seen[id(table)] = len(key)
            key.append(("array", table.width, len(table.args[1])))
            heights.append(1)
            args.append(table.args[1])
        index = _visit(operands[1], depth - 1, seen, key, heights, args)
        entry = ("read", where, index)
        height = 1 + heights[index]
    elif op == "trunc" or op == "sext" or op == "extract":
        inner = _visit(operands[0], depth - 1, seen, key, heights, args)
        entry = (op, operands[1], inner)
        height = 1 + heights[inner]
    elif op == "concat":
        parts = [_visit(part, depth - 1, seen, key, heights, args)
                 for part in operands]
        entry = ("concat", *parts)
        height = 1 + max([heights[part] for part in parts])
    else:  # ite, store, a bare array or an unknown op (the walker
        raise _Decline  # raises its SolverError)
    position = seen[id(node)] = len(key)
    key.append(entry)
    heights.append(height)
    return position


def _factory(key: tuple) -> Callable:
    """Generate, compile and run the source of the terms shaped ``key``;
    returns the factory it defines.

    Each entry is one local ``v<n>``, or, for a constant or table, the
    argument ``c<n>`` holding it, so the body is one line per node (five
    for a signed division) and then the charge.  ``unknown`` marks the
    entries whose value may be ``None``, so that no line tests a value
    that cannot be.  Generated code cannot raise, and each call first
    checks that its worst-case charge fits under the budget's limit, so
    its inline ``budget.spent += cost`` is exactly ``budget.charge(cost)``
    for :class:`Budget` and :class:`UnlimitedBudget` alike.
    """
    names: List[str] = []
    unknown: List[bool] = []
    lines: List[str] = []
    charges: List[str] = []  # each read's unknown-index charge
    params: List[str] = []
    cost = worst = 0
    for position, entry in enumerate(key):
        op = entry[0]
        if op == "const" or op == "array":  # the walker skips arrays
            names.append(f"c{len(params)}")
            params.append(names[-1])
            unknown.append(False)
            if op == "const":
                cost += 1
            continue
        cost += 1
        name = f"v{position}"
        names.append(name)
        if op == "var":
            params.append(f"c{len(params)}")
            lines.append(f"{name} = env.get({params[-1]})")
            unknown.append(True)
            continue
        operands = entry[1:] if op == "concat" else entry[2:]
        values = [names[operand] for operand in operands]
        tests = [f"{names[operand]} is None"
                 for operand in operands if unknown[operand]]
        if op == "read":
            (_, width, size), index = key[entry[1]], values[0]
            if unknown[entry[2]]:
                unit = max(1, width // OBJECT_BYTES_PER_UNIT)
                charges.append(f"({unit} if {index} is None else 0)")
                worst += unit
            tests.append(f"not 0 <= {index} < {size}")
            expr = f"{names[entry[1]]}[{index}]"
        elif op == "concat":  # least significant byte first
            expr = " | ".join([f"({value} & 255) << {8 * i}" if i else
                               f"({value} & 255)"
                               for i, value in enumerate(values)])
        elif op == "extract":
            expr = f"({values[0]} >> {8 * entry[1]}) & 255"
        elif op == "trunc":
            expr = f"{values[0]} & {(1 << entry[1]) - 1}"
        elif op == "sext":
            expr = f"{_signed(values[0], entry[1])} & {MASK64}"
        elif op in CMP_OPS:
            side = _signed if op[0] == "s" else _unsigned
            a, b = [side(value, entry[1]) for value in values]
            expr = f"1 if {a} {CMP_OPERATORS[op]} {b} else 0"
        elif op in DIVISIONS:
            a, b = values
            operator, result = DIVISIONS[op]
            tests.append(f"not {b} & {(1 << entry[1]) - 1}")
            if result is not None:
                lines += [f"if {' or '.join(tests)}:", f"    {name} = None",
                          "else:",
                          f"    x = {_signed(a, entry[1])}",
                          f"    y = {_signed(b, entry[1])}",
                          f"    q = {MAGNITUDES.format(op=operator)}",
                          f"    {name} = "
                          f"{result.format(m=(1 << entry[1]) - 1)}"]
                unknown.append(True)
                continue
            expr = (f"{_unsigned(a, entry[1])} {operator} "
                    f"{_unsigned(b, entry[1])}")
        else:
            a, b = values
            width = entry[1]
            expr = BINOP_EXPRS[op].format(a=a, b=b, m=(1 << width) - 1,
                                          s=1 << (width - 1), k=width - 1)
            if tests and (op == "and" or op == "mul"):
                # a known zero operand makes the result 0
                lines.append(f"{name} = 0 if {a} == 0 or {b} == 0 else "
                             f"None if {' or '.join(tests)} else {expr}")
                unknown.append(True)
                continue
        lines.append(f"{name} = None if {' or '.join(tests)} else {expr}"
                     if tests else f"{name} = {expr}")
        unknown.append(bool(tests))
    body = ([f"if budget.spent + {cost + worst} > budget.limit:",
             "    return walk(term, env, budget)"]
            + lines
            + [f"budget.spent += {' + '.join([str(cost)] + charges)}",
               f"return {names[-1]}"])
    defaults = ", ".join([f"{param}={param}" for param in params])
    source = (f"def make({', '.join(params)}):\n"
              f"    def evaluate(term, env, budget, {defaults}):\n"
              + "".join([f"        {line}\n" for line in body])
              + "    return evaluate\n")
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<generated term>", "exec"), namespace)
    return namespace["make"]


def _unsigned(value: str, width: int) -> str:
    return f"({value} & {(1 << width) - 1})"


def _signed(value: str, width: int) -> str:
    """``value``'s low ``width`` bits as a two's-complement integer."""
    sign = 1 << (width - 1)
    return f"((({value} & {(1 << width) - 1}) ^ {sign}) - {sign})"


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
        if op in DIVISIONS and mask(rvalue, opwidth) == 0:
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
