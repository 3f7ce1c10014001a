"""Symbolic memory unit tests: overlays, chains, snapshots."""

import pytest

from repro.interp.failures import FailureKind, MemoryFault
from repro.ir.module import Module
from repro.solver import terms as T
from repro.symex.memory import SymMemory, SymObject


@pytest.fixture(autouse=True)
def fresh_cache():
    T.clear_term_cache()
    yield


class TestSymObject:
    def test_concrete_read_write(self):
        obj = SymObject(0x1000, 8, "heap", "o")
        obj.write_byte(3, T.const(0xAB, 8))
        assert obj.read_byte(3).value == 0xAB

    def test_symbolic_value_overlay(self):
        obj = SymObject(0x1000, 8, "heap", "o")
        v = T.var("v")
        obj.write_byte(2, v)
        assert obj.read_byte(2) is v
        assert obj.chain is None  # concrete index: no chain yet

    def test_concrete_write_clears_overlay(self):
        obj = SymObject(0x1000, 8, "heap", "o")
        obj.write_byte(2, T.var("v"))
        obj.write_byte(2, T.const(5, 8))
        assert obj.read_byte(2).value == 5

    def test_symbolic_index_starts_chain(self):
        obj = SymObject(0x1000, 8, "heap", "o")
        obj.write_sym(T.var("i"), T.const(1, 8))
        assert obj.chain is not None
        assert obj.chain_length() == 1

    def test_all_stores_chain_after_freeze(self):
        obj = SymObject(0x1000, 8, "heap", "o")
        obj.write_sym(T.var("i"), T.const(1, 8))
        obj.write_byte(0, T.const(9, 8))   # concrete, but must chain
        assert obj.chain_length() == 2

    def test_read_after_freeze_goes_through_chain(self):
        obj = SymObject(0x1000, 8, "heap", "o", init=b"\x07" * 8)
        obj.write_sym(T.var("i"), T.const(1, 8))
        term = obj.read_byte(0)
        # cannot see through the symbolic store: stays a read term
        assert term.op == "read"

    def test_snapshot_includes_overlay(self):
        obj = SymObject(0x1000, 4, "heap", "o", init=b"\x01\x02\x03\x04")
        v = T.var("v")
        obj.write_byte(1, v)
        arr = obj.array_term()
        assert T.read(arr, T.const(1)) is v
        assert T.read(arr, T.const(2)).value == 3

    def test_snapshot_caching_and_invalidation(self):
        obj = SymObject(0x1000, 4, "heap", "o")
        first = obj.array_term()
        assert obj.array_term() is first       # cached
        obj.write_byte(0, T.const(9, 8))
        second = obj.array_term()
        assert second is not first             # invalidated
        assert T.read(second, T.const(0)).value == 9

    def test_init_truncated_to_size(self):
        obj = SymObject(0x1000, 2, "heap", "o", init=b"abcdef")
        assert bytes(obj.data) == b"ab"


class TestSymMemory:
    def _module(self):
        m = Module()
        m.add_global("g", 16, b"\xAA")
        m.add_function(_dummy_main())
        return m

    def test_layout_matches_concrete_memory(self):
        from repro.interp.memory import Memory

        module = self._module()
        concrete = Memory(module)
        symbolic = SymMemory(module)
        assert concrete.global_addrs == symbolic.global_addrs
        c_stack = concrete.alloc_stack("s", 24).base
        s_stack = symbolic.alloc_stack("s", 24).base
        assert c_stack == s_stack
        assert concrete.alloc_heap(8).base == symbolic.alloc_heap(8).base

    def test_find_object(self):
        mem = SymMemory()
        obj = mem.alloc_heap(16)
        assert mem.find_object(obj.base + 5) is obj
        assert mem.find_object(obj.base + 16) is None

    def test_free_heap_liveness(self):
        mem = SymMemory()
        obj = mem.alloc_heap(8)
        mem.free_heap(obj.base)
        assert not obj.live
        with pytest.raises(MemoryFault) as exc:
            mem.free_heap(obj.base)
        assert exc.value.kind == FailureKind.DOUBLE_FREE

    def test_objects_with_chains(self):
        mem = SymMemory()
        a = mem.alloc_heap(8)
        b = mem.alloc_heap(8)
        a.write_sym(T.var("i"), T.const(1, 8))
        assert mem.objects_with_chains() == [a]


def _dummy_main():
    from repro.ir import instructions as ins
    from repro.ir.module import BasicBlock, Function

    return Function("main", blocks={"entry": BasicBlock("entry",
                                                        (ins.Ret(),))})
