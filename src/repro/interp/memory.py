"""Concrete byte-addressed memory with object bounds and liveness.

The address space is segmented so that faults classify naturally:

* ``[0, 0x1000)``            — the null page; any access is a NULL_DEREF.
* ``[0x0001_0000, ...)``     — globals, laid out at module load.
* ``[0x1000_0000, ...)``     — stack objects (``alloca``), freed on return.
* ``[0x2000_0000, ...)``     — heap objects (``malloc``/``free``).

Every object keeps its identity after ``free`` so that dangling accesses
report USE_AFTER_FREE rather than a generic wild access — the pbzip2
workload depends on this.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir.module import Module
from .failures import FailureKind, MemoryFault

NULL_PAGE_END = 0x1000
GLOBAL_BASE = 0x0001_0000
STACK_BASE = 0x1000_0000
HEAP_BASE = 0x2000_0000
_ALIGN = 16
#: guard gap between objects: small overruns hit unmapped bytes
_GUARD = 48


@dataclass
class MemoryObject:
    """One allocation: a contiguous, bounds-checked byte array."""

    base: int
    size: int
    kind: str  # 'global' | 'stack' | 'heap'
    name: str
    data: bytearray
    live: bool = True

    @property
    def end(self) -> int:
        return self.base + self.size


def _align(value: int) -> int:
    return ((value + _GUARD + _ALIGN - 1) & ~(_ALIGN - 1))


class Memory:
    """Concrete memory: allocation, bounds/liveness checking, load/store."""

    def __init__(self, module: Optional[Module] = None):
        self._objects: Dict[int, MemoryObject] = {}
        self._bases: List[int] = []
        self._next_stack = STACK_BASE
        self._next_heap = HEAP_BASE
        self._next_global = GLOBAL_BASE
        self.global_addrs: Dict[str, int] = {}
        #: access site -> the object that site's last checked access hit;
        #: only the interpreter's generated runs read and write it
        self.sites: Dict[int, MemoryObject] = {}
        if module is not None:
            self.load_globals(module)

    # -- allocation ----------------------------------------------------

    def load_globals(self, module: Module) -> None:
        for obj in module.globals.values():
            base = self._next_global
            self._insert(MemoryObject(base, obj.size, "global", obj.name,
                                      obj.initial_bytes()))
            self.global_addrs[obj.name] = base
            self._next_global = _align(base + max(obj.size, 1))

    def alloc_stack(self, name: str, size: int) -> MemoryObject:
        base = self._next_stack
        obj = MemoryObject(base, size, "stack", name, bytearray(size))
        self._insert(obj)
        self._next_stack = _align(base + max(size, 1))
        return obj

    def alloc_heap(self, size: int) -> MemoryObject:
        base = self._next_heap
        obj = MemoryObject(base, size, "heap", f"heap@{base:#x}",
                           bytearray(size))
        self._insert(obj)
        self._next_heap = _align(base + max(size, 1))
        return obj

    def free_heap(self, addr: int) -> MemoryObject:
        obj = self.find_object(addr)
        if obj is None or obj.base != addr or obj.kind != "heap":
            raise MemoryFault(FailureKind.OUT_OF_BOUNDS, addr,
                              "free of non-heap pointer")
        if not obj.live:
            raise MemoryFault(FailureKind.DOUBLE_FREE, addr)
        obj.live = False
        return obj

    def release_stack(self, obj: MemoryObject) -> None:
        """Mark a frame object dead on function return."""
        obj.live = False

    def _insert(self, obj: MemoryObject) -> None:
        self._objects[obj.base] = obj
        bisect.insort(self._bases, obj.base)

    # -- lookup ----------------------------------------------------------

    def find_object(self, addr: int) -> Optional[MemoryObject]:
        """The object whose [base, end) contains ``addr``, live or dead."""
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx < 0:
            return None
        obj = self._objects[self._bases[idx]]  # base <= addr
        return obj if addr < obj.base + obj.size else None

    def check_access(self, addr: int, size: int) -> MemoryObject:
        """Classify and validate an access; raises MemoryFault on traps."""
        if addr < NULL_PAGE_END:
            raise MemoryFault(FailureKind.NULL_DEREF, addr)
        obj = self.find_object(addr)
        if obj is None:
            raise MemoryFault(FailureKind.OUT_OF_BOUNDS, addr,
                              "wild pointer")
        if not obj.live:
            raise MemoryFault(FailureKind.USE_AFTER_FREE, addr,
                              f"object {obj.name}")
        if addr + size > obj.base + obj.size:
            raise MemoryFault(FailureKind.OUT_OF_BOUNDS, addr,
                              f"{size}-byte access past end of {obj.name}")
        return obj

    # -- access ----------------------------------------------------------

    def load(self, addr: int, size: int) -> int:
        obj = self.check_access(addr, size)
        off = addr - obj.base
        return int.from_bytes(obj.data[off:off + size], "little")

    def store(self, addr: int, value: int, size: int) -> None:
        obj = self.check_access(addr, size)
        off = addr - obj.base
        obj.data[off:off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little")

    def snapshot(self) -> Dict[int, bytes]:
        """Copy of every live object's bytes, keyed by base (for REPT)."""
        return {base: bytes(obj.data)
                for base, obj in self._objects.items() if obj.live}

    def objects(self) -> List[MemoryObject]:
        return [self._objects[b] for b in self._bases]
