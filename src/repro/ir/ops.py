"""Shared concrete semantics of IR arithmetic.

The concrete interpreter, the constraint solver's evaluator, and the
symbolic executor's constant folding must agree bit-for-bit.  The per-op
tables :data:`BINOPS` and :data:`CMPS` are the semantics:
:func:`apply_binop` and :func:`apply_cmp` dispatch through them by name,
for constant folding, the evaluator's walker and the reference
interpreter.  The two code generators, the interpreter's blocks and the
evaluator's terms, inline each operation instead, from the source
templates at the end of this module (:data:`BINOP_EXPRS`,
:data:`DIVISIONS`, :data:`MAGNITUDES`, :data:`CMP_OPERATORS`);
``tests/ir/test_ops.py`` checks every template against the tables at
every width.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Optional, Tuple

from .types import to_signed

#: ``fn(lhs, rhs, width)`` on unsigned ``width``-bit values
OpFn = Callable[[int, int, int], int]


def _add(lhs: int, rhs: int, width: int) -> int:
    m = (1 << width) - 1
    return ((lhs & m) + (rhs & m)) & m


def _sub(lhs: int, rhs: int, width: int) -> int:
    m = (1 << width) - 1
    return ((lhs & m) - (rhs & m)) & m


def _mul(lhs: int, rhs: int, width: int) -> int:
    m = (1 << width) - 1
    return ((lhs & m) * (rhs & m)) & m


def _udiv(lhs: int, rhs: int, width: int) -> int:
    m = (1 << width) - 1
    return ((lhs & m) // (rhs & m)) & m


def _urem(lhs: int, rhs: int, width: int) -> int:
    m = (1 << width) - 1
    return ((lhs & m) % (rhs & m)) & m


def _sdiv(lhs: int, rhs: int, width: int) -> int:
    lhs_s = to_signed(lhs, width)
    rhs_s = to_signed(rhs, width)
    quotient = abs(lhs_s) // abs(rhs_s)
    if (lhs_s < 0) != (rhs_s < 0):
        quotient = -quotient
    return quotient & ((1 << width) - 1)


def _srem(lhs: int, rhs: int, width: int) -> int:
    lhs_s = to_signed(lhs, width)
    rhs_s = to_signed(rhs, width)
    remainder = abs(lhs_s) % abs(rhs_s)
    return (-remainder if lhs_s < 0 else remainder) & ((1 << width) - 1)


def _and(lhs: int, rhs: int, width: int) -> int:
    m = (1 << width) - 1
    return lhs & rhs & m


def _or(lhs: int, rhs: int, width: int) -> int:
    m = (1 << width) - 1
    return (lhs & m) | (rhs & m)


def _xor(lhs: int, rhs: int, width: int) -> int:
    m = (1 << width) - 1
    return (lhs & m) ^ (rhs & m)


def _shl(lhs: int, rhs: int, width: int) -> int:
    m = (1 << width) - 1
    return ((lhs & m) << (rhs & m & (width - 1))) & m


def _lshr(lhs: int, rhs: int, width: int) -> int:
    m = (1 << width) - 1
    return (lhs & m) >> (rhs & m & (width - 1))


def _ashr(lhs: int, rhs: int, width: int) -> int:
    m = (1 << width) - 1
    return (to_signed(lhs, width) >> (rhs & m & (width - 1))) & m


#: binop name -> semantics.  Division/remainder by zero must be guarded
#: by the caller (the interpreter turns it into a DIV_BY_ZERO failure).
BINOPS: Dict[str, OpFn] = {
    "add": _add, "sub": _sub, "mul": _mul, "udiv": _udiv, "sdiv": _sdiv,
    "urem": _urem, "srem": _srem, "and": _and, "or": _or, "xor": _xor,
    "shl": _shl, "lshr": _lshr, "ashr": _ashr,
}


def _unsigned(test: Callable[[int, int], bool]) -> OpFn:
    def fn(lhs: int, rhs: int, width: int) -> int:
        m = (1 << width) - 1
        return 1 if test(lhs & m, rhs & m) else 0
    return fn


def _signed(test: Callable[[int, int], bool]) -> OpFn:
    def fn(lhs: int, rhs: int, width: int) -> int:
        return 1 if test(to_signed(lhs, width), to_signed(rhs, width)) \
            else 0
    return fn


#: comparison name -> semantics (returns 0 or 1)
CMPS: Dict[str, OpFn] = {
    "eq": _unsigned(operator.eq), "ne": _unsigned(operator.ne),
    "ult": _unsigned(operator.lt), "ule": _unsigned(operator.le),
    "ugt": _unsigned(operator.gt), "uge": _unsigned(operator.ge),
    "slt": _signed(operator.lt), "sle": _signed(operator.le),
    "sgt": _signed(operator.gt), "sge": _signed(operator.ge),
}


def apply_binop(op: str, lhs: int, rhs: int, width: int) -> int:
    """Evaluate a binary IR operation on unsigned ``width``-bit values."""
    try:
        fn = BINOPS[op]
    except KeyError:
        raise ValueError(f"unknown binop {op!r}") from None
    return fn(lhs, rhs, width)


def apply_cmp(op: str, lhs: int, rhs: int, width: int) -> int:
    """Evaluate an IR comparison; returns 0 or 1."""
    try:
        fn = CMPS[op]
    except KeyError:
        raise ValueError(f"unknown cmp {op!r}") from None
    return fn(lhs, rhs, width)


# ----------------------------------------------------------------------
# source templates of generated code
#
# Operands may be wider than the operation: a term's operand is any
# non-negative integer, so each template masks its operands as the
# tables above do.  (The interpreter's registers hold 64-bit values, and
# it keeps its own unmasked shortcuts for width 64.)

#: binop -> the expression of its width-``w`` result from operands ``a``
#: and ``b``; ``m`` is the width's mask, ``s`` its sign bit and ``k``
#: ``w - 1``
BINOP_EXPRS: Dict[str, str] = {
    "add": "({a} + {b}) & {m}", "sub": "({a} - {b}) & {m}",
    "mul": "{a} * {b} & {m}", "and": "{a} & {b} & {m}",
    "or": "({a} | {b}) & {m}", "xor": "({a} ^ {b}) & {m}",
    "shl": "({a} << ({b} & {k})) & {m}", "lshr": "({a} & {m}) >> ({b} & {k})",
    "ashr": "(((({a} & {m}) ^ {s}) - {s}) >> ({b} & {k})) & {m}",
}

#: division -> (Python operator, result expression).  Generated code
#: tests the divisor first.  On a nonzero one, an unsigned division is
#: ``x <operator> y`` on the operands masked to the width; a signed one
#: binds ``x`` and ``y`` to the operands' two's-complement values and
#: ``q`` to :data:`MAGNITUDES`, and its result expression masks with
#: ``m``, the width's mask
DIVISIONS: Dict[str, Tuple[str, Optional[str]]] = {
    "udiv": ("//", None), "urem": ("%", None),
    "sdiv": ("//", "(q if (x < 0) == (y < 0) else -q) & {m}"),
    "srem": ("%", "(-q if x < 0 else q) & {m}"),
}

#: a signed division's ``q``: its operator on the operands' magnitudes
MAGNITUDES = "(x if x >= 0 else -x) {op} (y if y >= 0 else -y)"

#: comparison -> Python operator; ``s``-prefixed ones compare the
#: operands' two's-complement values, the others the operands masked to
#: the width
CMP_OPERATORS: Dict[str, str] = {
    "eq": "==", "ne": "!=", "ult": "<", "ule": "<=", "ugt": ">",
    "uge": ">=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
}
