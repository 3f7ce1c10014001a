"""Static verifier: the mistakes it must catch."""

import pytest

from repro.errors import IRError
from repro.ir import instructions as ins
from repro.ir.builder import ModuleBuilder
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.verifier import verify_module


def _module_with(func: Function) -> Module:
    m = Module()
    m.add_function(func)
    return m


def _entry(*instrs):
    """A function's blocks: one ``entry`` block of ``instrs``."""
    return {"entry": BasicBlock("entry", instrs)}


def _main(*instrs) -> Module:
    return _module_with(Function("main", blocks=_entry(*instrs)))


class TestVerifier:
    def test_requires_main(self):
        m = Module()
        with pytest.raises(IRError, match="main"):
            verify_module(m)

    def test_missing_terminator(self):
        m = _main(ins.Nop())
        with pytest.raises(IRError, match="terminator"):
            verify_module(m)

    def test_terminator_mid_block(self):
        m = _main(ins.Ret(), ins.Nop(), ins.Ret())
        with pytest.raises(IRError, match="mid-block"):
            verify_module(m)

    def test_branch_to_unknown_block(self):
        m = _main(ins.Br(1, "nowhere", "entry"))
        with pytest.raises(IRError, match="unknown block"):
            verify_module(m)

    def test_jmp_to_unknown_block(self):
        m = _main(ins.Jmp("gone"))
        with pytest.raises(IRError, match="unknown block"):
            verify_module(m)

    def test_call_unknown_function(self):
        m = _main(ins.Call(None, "ghost"), ins.Ret())
        with pytest.raises(IRError, match="unknown function"):
            verify_module(m)

    def test_call_arity_mismatch(self):
        m = _main(ins.Call(None, "callee"), ins.Ret())
        m.add_function(Function("callee", ["%a"], _entry(ins.Ret())))
        with pytest.raises(IRError, match="args"):
            verify_module(m)

    def test_unknown_global(self):
        m = _main(ins.GlobalAddr("%g", "ghost"), ins.Ret())
        with pytest.raises(IRError, match="unknown global"):
            verify_module(m)

    def test_undefined_register_read(self):
        m = _main(ins.BinOp("%x", "add", "%never", 1), ins.Ret())
        with pytest.raises(IRError, match="undefined register"):
            verify_module(m)

    def test_duplicate_ptwrite_tags(self):
        m = _main(ins.Const("%x", 1), ins.PtWrite("%x", 5),
                  ins.PtWrite("%x", 5), ins.Ret())
        with pytest.raises(IRError, match="duplicate ptwrite tag"):
            verify_module(m)

    def test_valid_module_passes(self, abort_module, table_module,
                                 spawn_module):
        verify_module(abort_module)
        verify_module(table_module)
        verify_module(spawn_module)

    def test_duplicate_block_rejected(self):
        b = ModuleBuilder()
        f = b.function("main", [])
        f.block("entry")
        with pytest.raises(IRError):
            f.block("entry")
