"""Modules, functions, basic blocks, and program points."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import IRError
from .instructions import Instr


class ProgramPoint(NamedTuple):
    """A static location: (function, block label, instruction index).

    Program points identify where a value is defined; ER's recording sets
    are sets of program points, and the instrumentation pass inserts
    ``ptwrite`` immediately after a point.  A point is a named tuple, so
    it hashes, compares and orders as ``(func, block, index)`` in C: the
    symbolic engine counts its steps under their points.
    """

    func: str
    block: str
    index: int

    def __str__(self) -> str:
        return f"{self.func}:{self.block}:{self.index}"


@dataclass(frozen=True)
class BasicBlock:
    """A labelled straight-line sequence ending in a terminator.

    Blocks are immutable, so modules share them: instrumenting a module
    rebuilds only the blocks it inserts into.  ``_compiled`` is not a
    field.  It holds the interpreter's code for the block, written once
    by the first run that enters the block and reused by every later run
    of any module that shares it (see :mod:`repro.interp.interpreter`).
    """

    label: str
    instrs: Tuple[Instr, ...] = ()

    _compiled = None

    @property
    def terminator(self) -> Optional[Instr]:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None


@dataclass
class Function:
    """A function: parameter names plus an ordered dict of blocks."""

    name: str
    params: List[str] = field(default_factory=list)
    blocks: Dict[str, BasicBlock] = field(default_factory=dict)

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return next(iter(self.blocks.values()))

    def block(self, label: str) -> BasicBlock:
        try:
            return self.blocks[label]
        except KeyError:
            raise IRError(f"no block {label!r} in function {self.name}") from None

    def add_block(self, label: str) -> BasicBlock:
        if label in self.blocks:
            raise IRError(f"duplicate block {label!r} in function {self.name}")
        block = BasicBlock(label)
        self.blocks[label] = block
        return block

    def points(self) -> Iterator[Tuple[ProgramPoint, Instr]]:
        """Iterate over every (point, instruction) pair in block order."""
        for label, block in self.blocks.items():
            for index, instr in enumerate(block.instrs):
                yield ProgramPoint(self.name, label, index), instr

    def instr_at(self, point: ProgramPoint) -> Instr:
        return self.block(point.block).instrs[point.index]


@dataclass(frozen=True)
class GlobalObject:
    """A module-level memory object.

    ``init`` seeds the first bytes; the remainder is zero-filled.
    """

    name: str
    size: int
    init: bytes = b""

    def initial_bytes(self) -> bytearray:
        data = bytearray(self.size)
        data[: len(self.init)] = self.init[: self.size]
        return data


@dataclass
class Module:
    """A whole program: globals plus functions; entry point is ``main``.

    Only the builder and the parser add to a module.  Once built it is
    never changed: instrumentation returns a new module that shares
    every global, function and block it does not touch.
    """

    name: str = "module"
    globals: Dict[str, GlobalObject] = field(default_factory=dict)
    functions: Dict[str, Function] = field(default_factory=dict)

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function named {name!r}") from None

    def add_global(self, name: str, size: int, init: bytes = b"") -> GlobalObject:
        if name in self.globals:
            raise IRError(f"duplicate global {name!r}")
        obj = GlobalObject(name, size, init)
        self.globals[name] = obj
        return obj

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise IRError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def instr_at(self, point: ProgramPoint) -> Instr:
        return self.function(point.func).instr_at(point)

    def points(self) -> Iterator[Tuple[ProgramPoint, Instr]]:
        for func in self.functions.values():
            yield from func.points()

    def instruction_count(self) -> int:
        """Static instruction count (the 'LoC' of a workload)."""
        return sum(1 for _ in self.points())
