"""Fluent builder API for constructing IR modules from Python.

The workload programs (``repro.workloads``) are built with this API; the
textual parser (``repro.ir.parser``) offers the same expressiveness for
programs written as ``.eir`` text.

Example::

    b = ModuleBuilder("demo")
    b.global_("V", 1024)
    f = b.function("foo", ["a", "b"])
    f.block("entry")
    x = f.add("a", "b", width=32)
    cond = f.cmp("ult", x, 256)
    f.br(cond, "body", "exit")
    ...

Register management: every emitter returns the destination register name
(``%tmpN`` by default) so expressions compose naturally.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import IRError
from . import instructions as ins
from .instructions import Operand
from .module import BasicBlock, Function, Module


class FunctionBuilder:
    """Builds one function; obtained from :meth:`ModuleBuilder.function`."""

    def __init__(self, module: Module, name: str, params: Sequence[str]):
        self._func = Function(name, [self._reg(p) for p in params])
        module.add_function(self._func)
        self._current: Optional[BasicBlock] = None
        self._tmp = 0

    @property
    def func(self) -> Function:
        return self._func

    @staticmethod
    def _reg(name: str) -> str:
        return name if name.startswith("%") else "%" + name

    def fresh(self, hint: str = "tmp") -> str:
        self._tmp += 1
        return f"%{hint}{self._tmp}"

    def block(self, label: str) -> "FunctionBuilder":
        """Start a new basic block; subsequent emits go there."""
        self._current = self._func.add_block(label)
        return self

    def at(self, label: str) -> "FunctionBuilder":
        """Switch back to an existing block (to append more code)."""
        self._current = self._func.block(label)
        return self

    def emit(self, instr: ins.Instr) -> ins.Instr:
        """Append ``instr`` to the current block, which is immutable:
        the function gets a new block with one more instruction."""
        block = self._current
        if block is None:
            raise IRError("no current block; call .block(label) first")
        if block.terminator is not None:
            raise IRError(f"block {block.label!r} already has a terminator")
        self._current = self._func.blocks[block.label] = BasicBlock(
            block.label, block.instrs + (instr,))
        return instr

    # -- value-producing emitters ------------------------------------

    def _dest(self, dest: Optional[str], hint: str) -> str:
        return self._reg(dest) if dest else self.fresh(hint)

    def const(self, value: int, dest: Optional[str] = None) -> str:
        dest = self._dest(dest, "c")
        self.emit(ins.Const(dest, value))
        return dest

    def _op(self, operand: Operand) -> Operand:
        if isinstance(operand, str):
            return self._reg(operand)
        return operand

    def binop(self, op: str, lhs: Operand, rhs: Operand, width: int = 64,
              dest: Optional[str] = None) -> str:
        dest = self._dest(dest, op)
        self.emit(ins.BinOp(dest, op, self._op(lhs), self._op(rhs), width))
        return dest

    def add(self, lhs, rhs, width=64, dest=None):
        return self.binop("add", lhs, rhs, width, dest)

    def sub(self, lhs, rhs, width=64, dest=None):
        return self.binop("sub", lhs, rhs, width, dest)

    def mul(self, lhs, rhs, width=64, dest=None):
        return self.binop("mul", lhs, rhs, width, dest)

    def and_(self, lhs, rhs, width=64, dest=None):
        return self.binop("and", lhs, rhs, width, dest)

    def or_(self, lhs, rhs, width=64, dest=None):
        return self.binop("or", lhs, rhs, width, dest)

    def xor(self, lhs, rhs, width=64, dest=None):
        return self.binop("xor", lhs, rhs, width, dest)

    def shl(self, lhs, rhs, width=64, dest=None):
        return self.binop("shl", lhs, rhs, width, dest)

    def lshr(self, lhs, rhs, width=64, dest=None):
        return self.binop("lshr", lhs, rhs, width, dest)

    def udiv(self, lhs, rhs, width=64, dest=None):
        return self.binop("udiv", lhs, rhs, width, dest)

    def urem(self, lhs, rhs, width=64, dest=None):
        return self.binop("urem", lhs, rhs, width, dest)

    def cmp(self, op: str, lhs: Operand, rhs: Operand, width: int = 64,
            dest: Optional[str] = None) -> str:
        dest = self._dest(dest, "cmp")
        self.emit(ins.Cmp(dest, op, self._op(lhs), self._op(rhs), width))
        return dest

    def select(self, cond, if_true, if_false, dest=None) -> str:
        dest = self._dest(dest, "sel")
        self.emit(ins.Select(dest, self._op(cond), self._op(if_true),
                             self._op(if_false)))
        return dest

    def trunc(self, value, width=32, dest=None) -> str:
        dest = self._dest(dest, "tr")
        self.emit(ins.Trunc(dest, self._op(value), width))
        return dest

    def sext(self, value, from_width=32, dest=None) -> str:
        dest = self._dest(dest, "sx")
        self.emit(ins.SExt(dest, self._op(value), from_width))
        return dest

    def global_addr(self, name: str, dest=None) -> str:
        dest = self._dest(dest, "g")
        self.emit(ins.GlobalAddr(dest, name))
        return dest

    def alloca(self, name: str, size: int, dest=None) -> str:
        dest = self._dest(dest, "fp")
        self.emit(ins.FrameAlloc(dest, name, size))
        return dest

    def malloc(self, size: Operand, dest=None) -> str:
        dest = self._dest(dest, "hp")
        self.emit(ins.HeapAlloc(dest, self._op(size)))
        return dest

    def free(self, addr: Operand) -> None:
        self.emit(ins.HeapFree(self._op(addr)))

    def gep(self, base, index, scale=1, dest=None) -> str:
        dest = self._dest(dest, "p")
        self.emit(ins.Gep(dest, self._op(base), self._op(index), scale))
        return dest

    def load(self, addr, size=8, dest=None) -> str:
        dest = self._dest(dest, "v")
        self.emit(ins.Load(dest, self._op(addr), size))
        return dest

    def store(self, addr, value, size=8) -> None:
        self.emit(ins.Store(self._op(addr), self._op(value), size))

    def call(self, func: str, args: Sequence[Operand] = (), dest=None) -> str:
        dest = self._dest(dest, "r")
        self.emit(ins.Call(dest, func, tuple(self._op(a) for a in args)))
        return dest

    def call_void(self, func: str, args: Sequence[Operand] = ()) -> None:
        self.emit(ins.Call(None, func, tuple(self._op(a) for a in args)))

    def input(self, stream: str, size: int = 1, dest=None) -> str:
        dest = self._dest(dest, "in")
        self.emit(ins.Input(dest, stream, size))
        return dest

    def output(self, stream: str, value: Operand, size: int = 8) -> None:
        self.emit(ins.Output(stream, self._op(value), size))

    def spawn(self, func: str, args: Sequence[Operand] = (), dest=None) -> str:
        dest = self._dest(dest, "tid")
        self.emit(ins.Spawn(dest, func, tuple(self._op(a) for a in args)))
        return dest

    def join(self, tid: Operand) -> None:
        self.emit(ins.Join(self._op(tid)))

    def lock(self, mutex: Operand) -> None:
        self.emit(ins.Lock(self._op(mutex)))

    def unlock(self, mutex: Operand) -> None:
        self.emit(ins.Unlock(self._op(mutex)))

    # -- non-value emitters -------------------------------------------

    def jmp(self, label: str) -> None:
        self.emit(ins.Jmp(label))

    def br(self, cond: Operand, if_true: str, if_false: str) -> None:
        self.emit(ins.Br(self._op(cond), if_true, if_false))

    def ret(self, value: Optional[Operand] = None) -> None:
        self.emit(ins.Ret(None if value is None else self._op(value)))

    def assert_(self, cond: Operand, message: str = "assertion failed") -> None:
        self.emit(ins.Assert(self._op(cond), message))

    def abort(self, message: str = "abort") -> None:
        self.emit(ins.Abort(message))

    def ptwrite(self, value: Operand, tag: int = 0) -> None:
        self.emit(ins.PtWrite(self._op(value), tag))

    def nop(self, comment: str = "") -> None:
        self.emit(ins.Nop(comment))


class ModuleBuilder:
    """Top-level builder: declares globals and functions."""

    def __init__(self, name: str = "module"):
        self.module = Module(name)

    def global_(self, name: str, size: int, init: bytes = b"") -> str:
        self.module.add_global(name, size, init)
        return name

    def string(self, name: str, text: str) -> str:
        """Convenience: a NUL-terminated byte-string global."""
        data = text.encode("utf-8") + b"\x00"
        self.module.add_global(name, len(data), data)
        return name

    def function(self, name: str, params: Sequence[str] = ()) -> FunctionBuilder:
        return FunctionBuilder(self.module, name, list(params))

    def build(self) -> Module:
        from .verifier import verify_module

        verify_module(self.module)
        return self.module
