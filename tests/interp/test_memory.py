"""Concrete memory model: allocation, bounds, liveness, fault kinds."""

import pytest

from repro.interp.failures import FailureKind, MemoryFault
from repro.interp.memory import GLOBAL_BASE, HEAP_BASE, STACK_BASE, Memory
from repro.ir.module import Module


def _memory_with_global(size=16, init=b""):
    m = Module()
    m.add_global("g", size, init)
    return Memory(m)


class TestAllocation:
    def test_global_layout(self):
        mem = _memory_with_global(init=b"\x42")
        addr = mem.global_addrs["g"]
        assert addr >= GLOBAL_BASE
        assert mem.load(addr, 1) == 0x42

    def test_stack_and_heap_segments(self):
        mem = Memory()
        stack = mem.alloc_stack("s", 8)
        heap = mem.alloc_heap(8)
        assert STACK_BASE <= stack.base < HEAP_BASE <= heap.base

    def test_objects_do_not_overlap(self):
        mem = Memory()
        objs = [mem.alloc_heap(24) for _ in range(10)]
        for a, b in zip(objs, objs[1:]):
            assert a.end <= b.base

    def test_guard_gap_between_objects(self):
        mem = Memory()
        a = mem.alloc_heap(16)
        b = mem.alloc_heap(16)
        assert b.base - a.end >= 16  # overruns land in the gap


class TestAccess:
    def test_load_store_roundtrip(self):
        mem = Memory()
        obj = mem.alloc_heap(16)
        mem.store(obj.base + 4, 0xDEADBEEF, 4)
        assert mem.load(obj.base + 4, 4) == 0xDEADBEEF

    def test_little_endian(self):
        mem = Memory()
        obj = mem.alloc_heap(8)
        mem.store(obj.base, 0x0102, 2)
        assert mem.load(obj.base, 1) == 0x02

    def test_store_masks_value(self):
        mem = Memory()
        obj = mem.alloc_heap(8)
        mem.store(obj.base, 0x1FF, 1)
        assert mem.load(obj.base, 1) == 0xFF


class TestFaults:
    def test_null_deref(self):
        mem = Memory()
        with pytest.raises(MemoryFault) as exc:
            mem.load(0, 1)
        assert exc.value.kind == FailureKind.NULL_DEREF

    def test_null_page_extends(self):
        mem = Memory()
        with pytest.raises(MemoryFault) as exc:
            mem.load(0xFFF, 1)
        assert exc.value.kind == FailureKind.NULL_DEREF

    def test_wild_pointer(self):
        mem = Memory()
        with pytest.raises(MemoryFault) as exc:
            mem.load(0x12345, 1)
        assert exc.value.kind == FailureKind.OUT_OF_BOUNDS

    def test_overrun_past_end(self):
        mem = Memory()
        obj = mem.alloc_heap(8)
        with pytest.raises(MemoryFault) as exc:
            mem.load(obj.base + 6, 4)
        assert exc.value.kind == FailureKind.OUT_OF_BOUNDS

    def test_use_after_free(self):
        mem = Memory()
        obj = mem.alloc_heap(8)
        mem.free_heap(obj.base)
        with pytest.raises(MemoryFault) as exc:
            mem.load(obj.base, 1)
        assert exc.value.kind == FailureKind.USE_AFTER_FREE

    def test_double_free(self):
        mem = Memory()
        obj = mem.alloc_heap(8)
        mem.free_heap(obj.base)
        with pytest.raises(MemoryFault) as exc:
            mem.free_heap(obj.base)
        assert exc.value.kind == FailureKind.DOUBLE_FREE

    def test_free_of_interior_pointer(self):
        mem = Memory()
        obj = mem.alloc_heap(8)
        with pytest.raises(MemoryFault) as exc:
            mem.free_heap(obj.base + 4)
        assert exc.value.kind == FailureKind.OUT_OF_BOUNDS

    def test_free_of_stack_object(self):
        mem = Memory()
        obj = mem.alloc_stack("s", 8)
        with pytest.raises(MemoryFault):
            mem.free_heap(obj.base)

    def test_dead_stack_object_faults(self):
        mem = Memory()
        obj = mem.alloc_stack("s", 8)
        mem.release_stack(obj)
        with pytest.raises(MemoryFault) as exc:
            mem.store(obj.base, 1, 1)
        assert exc.value.kind == FailureKind.USE_AFTER_FREE


class TestSnapshot:
    def test_snapshot_excludes_dead(self):
        mem = Memory()
        live = mem.alloc_heap(4)
        dead = mem.alloc_heap(4)
        mem.free_heap(dead.base)
        snap = mem.snapshot()
        assert live.base in snap and dead.base not in snap

    def test_snapshot_copies(self):
        mem = Memory()
        obj = mem.alloc_heap(4)
        snap = mem.snapshot()
        mem.store(obj.base, 9, 1)
        assert snap[obj.base][0] == 0
