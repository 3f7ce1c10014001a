"""Shared concrete semantics of IR arithmetic.

The concrete interpreter, the constraint solver's evaluator, and the
symbolic executor's constant folding must agree bit-for-bit; they all go
through the per-op tables below.  :func:`apply_binop` and
:func:`apply_cmp` dispatch through them by name; the evaluator's compiled
terms bind a table entry once and call it directly.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict

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
