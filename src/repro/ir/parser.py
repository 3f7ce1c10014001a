"""Parser for the textual IR (the ``.eir`` format).

The grammar is line-oriented: one instruction per line, blocks introduced
by ``label:``, functions by ``func name(%a, %b) {`` ... ``}``, globals by
``global name size [= hexbytes]``.  ``;`` starts a comment.
"""

from __future__ import annotations

import ast
import re
from typing import Optional, Tuple

from ..errors import IRParseError
from . import instructions as ins
from .instructions import BINARY_OPS, CMP_OPS, Operand
from .module import BasicBlock, Function, Module

_FUNC_RE = re.compile(r"^func\s+(\w+)\s*\(([^)]*)\)\s*\{$")
_GLOBAL_RE = re.compile(r"^global\s+(\w+)\s+(\d+)(?:\s*=\s*([0-9a-fA-F]*))?$")
_LABEL_RE = re.compile(r"^([.\w]+):$")
_ASSIGN_RE = re.compile(r"^(%[\w.]+)\s*=\s*(.+)$")
_CALL_RE = re.compile(r"^(call|spawn)\s+(\w+)\s*\(([^)]*)\)$")
_OP_WIDTH_RE = re.compile(r"^(\w+)\.(\d+)$")


def _operand(token: str, line_no: int, line: str) -> Operand:
    token = token.strip()
    if token.startswith("%"):
        return token
    try:
        return int(token, 0)
    except ValueError:
        raise IRParseError(f"bad operand {token!r}", line_no, line) from None


def _split_args(text: str, line_no: int, line: str) -> Tuple[Operand, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_operand(t, line_no, line) for t in text.split(","))


def _string_literal(text: str, line_no: int, line: str) -> str:
    text = text.strip()
    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise IRParseError(f"bad string literal {text}", line_no, line) from None
    if not isinstance(value, str):
        raise IRParseError("expected a string literal", line_no, line)
    return value


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.module = Module()
        self.func: Optional[Function] = None
        self.block = None

    def parse(self) -> Module:
        for line_no, raw in enumerate(self.lines, start=1):
            line = raw.split(";", 1)[0].strip()
            if not line:
                continue
            # a bad number, or a field an instruction's own check rejects
            try:
                self._parse_line(line, line_no, raw)
            except ValueError as exc:
                raise IRParseError(str(exc), line_no, raw) from None
        if self.func is not None:
            raise IRParseError("unterminated function", len(self.lines), "")
        return self.module

    def _parse_line(self, line: str, line_no: int, raw: str) -> None:
        if line.startswith("module "):
            self.module.name = line[len("module "):].strip()
            return
        match = _GLOBAL_RE.match(line)
        if match:
            name, size, init_hex = match.groups()
            init = bytes.fromhex(init_hex) if init_hex else b""
            self.module.add_global(name, int(size), init)
            return
        match = _FUNC_RE.match(line)
        if match:
            if self.func is not None:
                raise IRParseError("nested function", line_no, raw)
            name, params = match.groups()
            param_list = [p.strip() for p in params.split(",") if p.strip()]
            for param in param_list:
                if not param.startswith("%"):
                    raise IRParseError(
                        f"parameter {param!r} must start with %", line_no, raw)
            self.func = Function(name, param_list)
            self.block = None
            return
        if line == "}":
            if self.func is None:
                raise IRParseError("stray '}'", line_no, raw)
            self.module.add_function(self.func)
            self.func = None
            self.block = None
            return
        if self.func is None:
            raise IRParseError("instruction outside function", line_no, raw)
        match = _LABEL_RE.match(line)
        if match:
            self.block = self.func.add_block(match.group(1))
            return
        if self.block is None:
            raise IRParseError("instruction before first label", line_no, raw)
        instr = self._parse_instr(line, line_no, raw)
        block = self.block
        self.block = self.func.blocks[block.label] = BasicBlock(
            block.label, block.instrs + (instr,))

    def _parse_instr(self, line: str, line_no: int, raw: str) -> ins.Instr:
        match = _ASSIGN_RE.match(line)
        if match:
            dest, rhs = match.groups()
            return self._parse_assign(dest, rhs.strip(), line_no, raw)
        return self._parse_void(line, line_no, raw)

    def _parse_assign(self, dest: str, rhs: str, line_no: int,
                      raw: str) -> ins.Instr:
        match = _CALL_RE.match(rhs)
        if match:
            kind, func, args = match.groups()
            arg_list = _split_args(args, line_no, raw)
            if kind == "call":
                return ins.Call(dest, func, arg_list)
            return ins.Spawn(dest, func, arg_list)

        head, _, tail = rhs.partition(" ")
        tail = tail.strip()
        op, width = head, 64
        match = _OP_WIDTH_RE.match(head)
        if match:
            op, width = match.group(1), int(match.group(2))

        if op == "const":
            return ins.Const(dest, int(tail, 0))
        if op in BINARY_OPS:
            lhs, rhs_op = self._two(tail, line_no, raw)
            return ins.BinOp(dest, op, lhs, rhs_op, width)
        if op == "cmp":
            cmp_head, _, cmp_tail = tail.partition(" ")
            cmp_op, cmp_width = cmp_head, 64
            match = _OP_WIDTH_RE.match(cmp_head)
            if match:
                cmp_op, cmp_width = match.group(1), int(match.group(2))
            if cmp_op not in CMP_OPS:
                raise IRParseError(f"bad cmp op {cmp_op!r}", line_no, raw)
            lhs, rhs_op = self._two(cmp_tail, line_no, raw)
            return ins.Cmp(dest, cmp_op, lhs, rhs_op, cmp_width)
        if op == "select":
            cond, if_true, if_false = self._three(tail, line_no, raw)
            return ins.Select(dest, cond, if_true, if_false)
        if op == "trunc":
            return ins.Trunc(dest, _operand(tail, line_no, raw), width)
        if op == "sext":
            return ins.SExt(dest, _operand(tail, line_no, raw), width)
        if op == "global":
            return ins.GlobalAddr(dest, tail)
        if op == "alloca":
            name, size = tail.split(",", 1)
            return ins.FrameAlloc(dest, name.strip(), int(size, 0))
        if op == "malloc":
            return ins.HeapAlloc(dest, _operand(tail, line_no, raw))
        if op == "gep":
            base, index, scale = self._three(tail, line_no, raw)
            if not isinstance(scale, int):
                raise IRParseError("gep scale must be an integer", line_no, raw)
            return ins.Gep(dest, base, index, scale)
        if op == "load":
            size = width if match else 8
            return ins.Load(dest, _operand(tail, line_no, raw), size)
        if op == "input":
            stream, size = tail.split(",", 1)
            return ins.Input(dest, stream.strip(), int(size, 0))
        raise IRParseError(f"unknown instruction {head!r}", line_no, raw)

    def _parse_void(self, line: str, line_no: int, raw: str) -> ins.Instr:
        match = _CALL_RE.match(line)
        if match:
            kind, func, args = match.groups()
            if kind != "call":
                raise IRParseError("spawn requires a destination", line_no, raw)
            return ins.Call(None, func, _split_args(args, line_no, raw))

        head, _, tail = line.partition(" ")
        tail = tail.strip()
        op, width = head, 64
        match = _OP_WIDTH_RE.match(head)
        if match:
            op, width = match.group(1), int(match.group(2))

        if op == "store":
            size = width if match else 8
            addr, value = self._two(tail, line_no, raw)
            return ins.Store(addr, value, size)
        if op == "jmp":
            return ins.Jmp(tail)
        if op == "br":
            parts = [p.strip() for p in tail.split(",")]
            if len(parts) != 3:
                raise IRParseError("br needs cond, l1, l2", line_no, raw)
            return ins.Br(_operand(parts[0], line_no, raw), parts[1], parts[2])
        if op == "ret":
            if not tail:
                return ins.Ret(None)
            return ins.Ret(_operand(tail, line_no, raw))
        if op == "free":
            return ins.HeapFree(_operand(tail, line_no, raw))
        if op == "output":
            parts = [p.strip() for p in tail.split(",")]
            if len(parts) != 3:
                raise IRParseError("output needs stream, value, size",
                                   line_no, raw)
            return ins.Output(parts[0], _operand(parts[1], line_no, raw),
                              int(parts[2], 0))
        if op == "assert":
            cond_text, _, message = tail.partition(",")
            return ins.Assert(_operand(cond_text, line_no, raw),
                              _string_literal(message, line_no, raw))
        if op == "abort":
            message = _string_literal(tail, line_no, raw) if tail else "abort"
            return ins.Abort(message)
        if op == "ptwrite":
            value, tag = self._two(tail, line_no, raw)
            if not isinstance(tag, int):
                raise IRParseError("ptwrite tag must be an integer",
                                   line_no, raw)
            return ins.PtWrite(value, tag)
        if op == "join":
            return ins.Join(_operand(tail, line_no, raw))
        if op == "lock":
            return ins.Lock(_operand(tail, line_no, raw))
        if op == "unlock":
            return ins.Unlock(_operand(tail, line_no, raw))
        if op == "nop":
            return ins.Nop()
        raise IRParseError(f"unknown instruction {head!r}", line_no, raw)

    def _two(self, text: str, line_no: int, raw: str):
        parts = _split_args(text, line_no, raw)
        if len(parts) != 2:
            raise IRParseError("expected two operands", line_no, raw)
        return parts[0], parts[1]

    def _three(self, text: str, line_no: int, raw: str):
        parts = _split_args(text, line_no, raw)
        if len(parts) != 3:
            raise IRParseError("expected three operands", line_no, raw)
        return parts[0], parts[1], parts[2]


def parse_module(text: str) -> Module:
    """Parse IR text into a :class:`Module` (verified by the caller)."""
    return _Parser(text).parse()
