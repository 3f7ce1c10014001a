"""Instruction set of the miniature IR.

The IR is a register machine (not SSA): each function has an unbounded set
of mutable virtual registers written as ``%name``.  Operands are either a
register name (a ``str`` beginning with ``%``) or an integer immediate.

The instruction set is deliberately close to the subset of LLVM IR that the
paper's KLEE-based prototype consumes: arithmetic/logic with explicit
widths, byte-addressed loads/stores, direct calls, conditional branches,
plus the pieces ER needs — ``input`` (non-deterministic environment data),
``ptwrite`` (key-data-value recording), threading primitives, and explicit
heap management so that use-after-free and overflow bugs trap.

Instructions are immutable values, so modules may share them: a pass
that changes a program builds new instructions and blocks around the
ones it keeps (see :mod:`repro.core.instrument`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .types import VALID_ACCESS_SIZES, VALID_WIDTHS

#: An operand: a register name (``"%x"``) or an immediate integer.
Operand = Union[str, int]

BINARY_OPS = (
    "add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
    "and", "or", "xor", "shl", "lshr", "ashr",
)

CMP_OPS = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")


def is_register(operand: Operand) -> bool:
    """True if ``operand`` names a virtual register."""
    return isinstance(operand, str)


@dataclass(frozen=True)
class Instr:
    """Base class for all instructions."""

    def operands(self) -> Tuple[Operand, ...]:
        """Operands read by this instruction (registers and immediates)."""
        return ()

    def dest_register(self) -> Optional[str]:
        """The register written by this instruction, if any."""
        return getattr(self, "dest", None)

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, (Br, Jmp, Ret, Abort))


@dataclass(frozen=True)
class Const(Instr):
    """``%dest = const <value>``"""

    dest: str
    value: int


@dataclass(frozen=True)
class BinOp(Instr):
    """``%dest = <op>.<width> <lhs>, <rhs>`` — result masked to ``width``."""

    dest: str
    op: str
    lhs: Operand
    rhs: Operand
    width: int = 64

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")
        if self.width not in VALID_WIDTHS:
            raise ValueError(f"invalid width {self.width}")

    def operands(self):
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class Cmp(Instr):
    """``%dest = cmp <op>.<width> <lhs>, <rhs>`` — result is 0 or 1."""

    dest: str
    op: str
    lhs: Operand
    rhs: Operand
    width: int = 64

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison op {self.op!r}")
        if self.width not in VALID_WIDTHS:
            raise ValueError(f"invalid width {self.width}")

    def operands(self):
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class Select(Instr):
    """``%dest = select <cond>, <if_true>, <if_false>``"""

    dest: str
    cond: Operand
    if_true: Operand
    if_false: Operand

    def operands(self):
        return (self.cond, self.if_true, self.if_false)


@dataclass(frozen=True)
class Trunc(Instr):
    """``%dest = trunc.<width> <value>`` — zero-extended back to 64 bits."""

    dest: str
    value: Operand
    width: int = 32

    def __post_init__(self):
        if self.width not in VALID_WIDTHS:
            raise ValueError(f"invalid width {self.width}")

    def operands(self):
        return (self.value,)


@dataclass(frozen=True)
class SExt(Instr):
    """``%dest = sext.<from_width> <value>`` — sign extend to 64 bits."""

    dest: str
    value: Operand
    from_width: int = 32

    def __post_init__(self):
        if self.from_width not in VALID_WIDTHS:
            raise ValueError(f"invalid width {self.from_width}")

    def operands(self):
        return (self.value,)


@dataclass(frozen=True)
class GlobalAddr(Instr):
    """``%dest = global <name>`` — address of a module-level object."""

    dest: str
    name: str


@dataclass(frozen=True)
class FrameAlloc(Instr):
    """``%dest = alloca <name>, <size>`` — stack object, freed on return."""

    dest: str
    name: str
    size: int


@dataclass(frozen=True)
class HeapAlloc(Instr):
    """``%dest = malloc <size>`` — heap object."""

    dest: str
    size: Operand

    def operands(self):
        return (self.size,)


@dataclass(frozen=True)
class HeapFree(Instr):
    """``free <addr>`` — subsequent accesses trap as use-after-free."""

    addr: Operand

    def operands(self):
        return (self.addr,)


@dataclass(frozen=True)
class Gep(Instr):
    """``%dest = gep <base>, <index>, <scale>`` — base + index*scale."""

    dest: str
    base: Operand
    index: Operand
    scale: int = 1

    def operands(self):
        return (self.base, self.index)


@dataclass(frozen=True)
class Load(Instr):
    """``%dest = load.<size> <addr>`` — little-endian, size in bytes."""

    dest: str
    addr: Operand
    size: int = 8

    def __post_init__(self):
        if self.size not in VALID_ACCESS_SIZES:
            raise ValueError(f"invalid load size {self.size}")

    def operands(self):
        return (self.addr,)


@dataclass(frozen=True)
class Store(Instr):
    """``store.<size> <addr>, <value>``"""

    addr: Operand
    value: Operand
    size: int = 8

    def __post_init__(self):
        if self.size not in VALID_ACCESS_SIZES:
            raise ValueError(f"invalid store size {self.size}")

    def operands(self):
        return (self.addr, self.value)


@dataclass(frozen=True)
class Jmp(Instr):
    """``jmp <label>`` — unconditional, emits no trace packet."""

    label: str


@dataclass(frozen=True)
class Br(Instr):
    """``br <cond>, <if_true>, <if_false>`` — emits one TNT bit."""

    cond: Operand
    if_true: str
    if_false: str

    def operands(self):
        return (self.cond,)


@dataclass(frozen=True)
class Call(Instr):
    """``%dest = call <func>(<args>)`` — direct call; dest optional."""

    dest: Optional[str]
    func: str
    args: Tuple[Operand, ...] = ()

    def operands(self):
        return self.args


@dataclass(frozen=True)
class Ret(Instr):
    """``ret <value>`` or bare ``ret``."""

    value: Optional[Operand] = None

    def operands(self):
        return () if self.value is None else (self.value,)


@dataclass(frozen=True)
class Input(Instr):
    """``%dest = input <stream>, <size>``.

    Reads ``size`` bytes (little-endian) from the named environment stream.
    In production this is a syscall-like source of non-determinism; during
    symbolic execution it introduces fresh symbolic bytes.
    """

    dest: str
    stream: str
    size: int = 1

    def __post_init__(self):
        if self.size not in VALID_ACCESS_SIZES:
            raise ValueError(f"invalid input size {self.size}")


@dataclass(frozen=True)
class Output(Instr):
    """``output <stream>, <value>, <size>`` — writes to the environment."""

    stream: str
    value: Operand
    size: int = 8

    def operands(self):
        return (self.value,)


@dataclass(frozen=True)
class Assert(Instr):
    """``assert <cond>, "message"`` — failure if cond is zero."""

    cond: Operand
    message: str = "assertion failed"

    def operands(self):
        return (self.cond,)


@dataclass(frozen=True)
class Abort(Instr):
    """``abort "message"`` — unconditional failure (e.g. abort(3))."""

    message: str = "abort"


@dataclass(frozen=True)
class PtWrite(Instr):
    """``ptwrite <value>, <tag>`` — record a key data value into the trace.

    Inserted by ER's instrumentation pass; models the x86 ``ptwrite``
    instruction emitting a PTW packet.
    """

    value: Operand
    tag: int = 0

    def operands(self):
        return (self.value,)


@dataclass(frozen=True)
class Spawn(Instr):
    """``%dest = spawn <func>(<args>)`` — start a thread; dest = tid."""

    dest: str
    func: str
    args: Tuple[Operand, ...] = ()

    def operands(self):
        return self.args


@dataclass(frozen=True)
class Join(Instr):
    """``join <tid>`` — block until the thread finishes."""

    tid: Operand

    def operands(self):
        return (self.tid,)


@dataclass(frozen=True)
class Lock(Instr):
    """``lock <mutex>`` — acquire mutex (identified by integer id)."""

    mutex: Operand

    def operands(self):
        return (self.mutex,)


@dataclass(frozen=True)
class Unlock(Instr):
    """``unlock <mutex>``"""

    mutex: Operand

    def operands(self):
        return (self.mutex,)


@dataclass(frozen=True)
class Nop(Instr):
    """``nop`` — placeholder; consumes one cycle."""

    comment: str = ""
