"""Symbolic memory: concrete bytes + overlays + symbolic write chains.

Each object starts fully concrete.  A store of a *symbolic value* at a
concrete offset goes into a per-byte overlay.  The first store at a
*symbolic offset* freezes the object into an ``array`` term and starts a
write chain; from then on every store (symbolic or not) appends a
``store`` node, so chains grow exactly the way the paper's §3.3.1
describes — and walking them is what costs solver work.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

from ..interp.failures import FailureKind, MemoryFault
from ..interp.memory import GLOBAL_BASE, HEAP_BASE, STACK_BASE
from ..ir.module import Module
from ..solver import terms as T
from ..solver.terms import Term

_ALIGN = 16
#: guard gap between objects: small overruns hit unmapped bytes
_GUARD = 48


def _align(value: int) -> int:
    return ((value + _GUARD + _ALIGN - 1) & ~(_ALIGN - 1))


class SymObject:
    """One allocation with hybrid concrete/symbolic content."""

    def __init__(self, base: int, size: int, kind: str, name: str,
                 init: bytes = b""):
        self.base = base
        self.size = size
        self.kind = kind
        self.name = name
        self.live = True
        self.data = bytearray(size)
        self.data[: len(init)] = init[: size]
        #: symbolic byte overlay at concrete offsets (pre-chain)
        self.overlay: Dict[int, Term] = {}
        #: write chain once a symbolic-offset store happened
        self.chain: Optional[Term] = None
        self._snapshot: Optional[Term] = None
        self._version = 0

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    # -- byte-level access ------------------------------------------------

    def read_byte(self, offset: int) -> Term:
        if self.chain is not None:
            return T.read(self.chain, T.const(offset))
        term = self.overlay.get(offset)
        if term is not None:
            return term
        return T.const(self.data[offset], 8)

    def write_byte(self, offset: int, value: Term) -> None:
        if self.chain is not None:
            self.chain = T.store(self.chain, T.const(offset), value)
            return
        self._version += 1
        if value.is_const:
            self.data[offset] = value.value & 0xFF
            self.overlay.pop(offset, None)
        else:
            self.overlay[offset] = value

    def read_sym(self, index: Term) -> Term:
        """Read one byte at a symbolic offset."""
        return T.read(self.array_term(), index)

    def write_sym(self, index: Term, value: Term) -> None:
        """Store one byte at a symbolic offset: starts/extends the chain."""
        self.chain = T.store(self.array_term(), index, value)

    def array_term(self) -> Term:
        """The term describing this object's current content."""
        if self.chain is not None:
            return self.chain
        if self._snapshot is None or self._snapshot_version != self._version:
            base = T.array(f"{self.name}@{self._version}", bytes(self.data))
            for offset in sorted(self.overlay):
                base = T.store(base, T.const(offset), self.overlay[offset])
            self._snapshot = base
            self._snapshot_version = self._version
        return self._snapshot

    _snapshot_version = -1

    def chain_length(self) -> int:
        return 0 if self.chain is None else T.chain_length(self.chain)

    def copy(self) -> "SymObject":
        """An independent copy: bytes and overlay copied, terms shared."""
        new = SymObject.__new__(SymObject)
        new.__dict__.update(self.__dict__)
        new.data = bytearray(self.data)
        new.overlay = dict(self.overlay)
        return new


class SymMemory:
    """Address-space bookkeeping identical to the concrete interpreter.

    Allocation addresses are deterministic and mirror
    :class:`repro.interp.memory.Memory` exactly, so symbolic replay sees
    the same pointer values production did.
    """

    def __init__(self, module: Optional[Module] = None):
        self._objects: Dict[int, SymObject] = {}
        self._bases: List[int] = []
        self._next_stack = STACK_BASE
        self._next_heap = HEAP_BASE
        self._next_global = GLOBAL_BASE
        self.global_addrs: Dict[str, int] = {}
        if module is not None:
            for obj in module.globals.values():
                base = self._next_global
                self._insert(SymObject(base, obj.size, "global", obj.name,
                                       bytes(obj.init)))
                self.global_addrs[obj.name] = base
                self._next_global = _align(base + max(obj.size, 1))

    def _insert(self, obj: SymObject) -> None:
        self._objects[obj.base] = obj
        bisect.insort(self._bases, obj.base)

    def alloc_stack(self, name: str, size: int) -> SymObject:
        obj = SymObject(self._next_stack, size, "stack", name)
        self._insert(obj)
        self._next_stack = _align(self._next_stack + max(size, 1))
        return obj

    def alloc_heap(self, size: int) -> SymObject:
        base = self._next_heap
        obj = SymObject(base, size, "heap", f"heap@{base:#x}")
        self._insert(obj)
        self._next_heap = _align(base + max(size, 1))
        return obj

    def free_heap(self, addr: int) -> SymObject:
        obj = self.find_object(addr)
        if obj is None or obj.base != addr or obj.kind != "heap":
            raise MemoryFault(FailureKind.OUT_OF_BOUNDS, addr,
                              "free of non-heap pointer")
        if not obj.live:
            raise MemoryFault(FailureKind.DOUBLE_FREE, addr)
        obj.live = False
        return obj

    def copy(self) -> "SymMemory":
        """An independent copy of every object and the allocator state."""
        new = SymMemory.__new__(SymMemory)
        new._objects = {base: obj.copy()
                        for base, obj in self._objects.items()}
        new._bases = list(self._bases)
        new._next_stack = self._next_stack
        new._next_heap = self._next_heap
        new._next_global = self._next_global
        new.global_addrs = self.global_addrs  # fixed once built
        return new

    def object_at(self, base: int) -> SymObject:
        """The object allocated at ``base`` (live or not)."""
        return self._objects[base]

    def find_object(self, addr: int) -> Optional[SymObject]:
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx < 0:
            return None
        obj = self._objects[self._bases[idx]]
        return obj if obj.contains(addr) else None

    def objects_with_chains(self) -> List[SymObject]:
        return [self._objects[b] for b in self._bases
                if self._objects[b].chain is not None]

    def objects(self) -> List[SymObject]:
        return [self._objects[b] for b in self._bases]
