"""Shared fixtures: small programs and environments used across tests."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.interp.env import Environment
from repro.ir.builder import ModuleBuilder


@pytest.fixture
def abort_module():
    """Reads one byte; aborts when it is >= 100."""
    b = ModuleBuilder("abort-demo")
    f = b.function("main", [])
    f.block("entry")
    x = f.input("stdin", 1, dest="%x")
    c = f.cmp("uge", "%x", 100, width=8)
    f.br(c, "boom", "ok")
    f.block("boom")
    f.abort("too big")
    f.block("ok")
    f.output("stdout", "%x", 1)
    f.ret(0)
    return b.build()


@pytest.fixture
def table_module():
    """The Fig. 3-style symbolic-write-chain program.

    V[x] = 1 at a symbolic index, then a dependent read decides the
    failure — the minimal chain/stall generator.
    """
    b = ModuleBuilder("table-demo")
    b.global_("V", 256)
    f = b.function("main", [])
    f.block("entry")
    x = f.input("stdin", 1, dest="%x")
    y = f.input("stdin", 1, dest="%y")
    g = f.global_addr("V", dest="%V")
    p = f.gep("%V", "%x", 1)
    f.store(p, 7, 1)
    q = f.gep("%V", "%y", 1)
    v = f.load(q, 1, dest="%v")
    c = f.cmp("eq", "%v", 7, width=8)
    f.br(c, "boom", "ok")
    f.block("boom")
    f.abort("aliased")
    f.block("ok")
    f.ret(0)
    return b.build()


@pytest.fixture
def call_module():
    """main -> double(x) -> ret x*2; exercises calls and returns."""
    b = ModuleBuilder("call-demo")
    f = b.function("double", ["x"])
    f.block("entry")
    y = f.mul("%x", 2)
    f.ret(y)
    f = b.function("main", [])
    f.block("entry")
    a = f.input("stdin", 1)
    r = f.call("double", [a], dest="%r")
    f.output("stdout", "%r", 2)
    f.ret("%r")
    return b.build()


@pytest.fixture
def spawn_module():
    """Two threads increment a shared counter (no race guard)."""
    b = ModuleBuilder("spawn-demo")
    b.global_("counter", 8)
    f = b.function("worker", [])
    f.block("entry")
    g = f.global_addr("counter", dest="%g")
    f.const(0, dest="%i")
    f.jmp("loop")
    f.block("loop")
    done = f.cmp("uge", "%i", 10)
    f.br(done, "out", "body")
    f.block("body")
    v = f.load("%g", 8, dest="%v")
    f.add("%v", 1, dest="%v")
    f.store("%g", "%v", 8)
    f.add("%i", 1, dest="%i")
    f.jmp("loop")
    f.block("out")
    f.ret(0)
    f = b.function("main", [])
    f.block("entry")
    t0 = f.spawn("worker", [], dest="%t0")
    t1 = f.spawn("worker", [], dest="%t1")
    f.join("%t0")
    f.join("%t1")
    g = f.global_addr("counter", dest="%g")
    v = f.load("%g", 8, dest="%v")
    f.output("stdout", "%v", 8)
    f.ret(0)
    return b.build()


@pytest.fixture
def env_factory():
    def make(data: bytes = b"", quantum: int = 50, **streams) -> Environment:
        all_streams = {"stdin": data}
        all_streams.update(streams)
        return Environment(all_streams, quantum=quantum)
    return make


@pytest.fixture
def with_instr():
    """``with_instr(module, point, instr)``: a variant of ``module`` whose
    instruction at ``point`` is ``instr``.  Built modules are immutable,
    so the variant is built with ``dataclasses.replace``; it shares every
    other function and block with ``module``."""
    def build(module, point, instr):
        func = module.function(point.func)
        block = func.block(point.block)
        instrs = (block.instrs[:point.index] + (instr,)
                  + block.instrs[point.index + 1:])
        return replace(module, functions={
            **module.functions, func.name: replace(func, blocks={
                **func.blocks, block.label: replace(block, instrs=instrs)})})
    return build
