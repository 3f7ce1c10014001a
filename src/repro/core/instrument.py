"""Instrumentation pass: insert ``ptwrite`` after selected program points.

Models the paper's 156-LoC LLVM pass (§4): given a recording plan, emit a
new module (the 'redeployed' binary) where each selected register is
recorded into the PT trace right after it is defined.  The input module
is never changed.  The new module shares every global, function and
block the plan does not touch: only a block that gains a ``ptwrite`` is
rebuilt, and only its function is replaced.  Inserting shifts
instruction indices, so insertions are applied per block in descending
index order.  Every call inserting the same ``(register, tag)`` inserts
the same ``ptwrite`` object, so a rebuilt block whose instructions are
all objects seen before runs the fused code kept on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from ..errors import IRError
from ..ir import instructions as ins
from ..ir.module import BasicBlock, Module
from ..ir.verifier import verify_module
from .selection import RecordingItem


#: (register, tag) -> its ``ptwrite``.  Instructions are frozen, so equal
#: ones are interchangeable; the interpreter matches a fused run by the
#: identity of its instructions, and a fresh object would make it
#: generate every rebuilt run again.
_PTWRITES: Dict[Tuple[str, int], ins.PtWrite] = {}
#: entries the memo holds before it starts over
_PTWRITE_LIMIT = 4096


def _ptwrite(register: str, tag: int) -> ins.PtWrite:
    instr = _PTWRITES.get((register, tag))
    if instr is None:
        if len(_PTWRITES) >= _PTWRITE_LIMIT:
            _PTWRITES.clear()
        instr = _PTWRITES[register, tag] = ins.PtWrite(register, tag)
    return instr


@dataclass
class InstrumentationResult:
    """The redeployed module plus tag bookkeeping."""

    module: Module
    #: ptwrite tag -> the recording item it implements
    tag_map: Dict[int, RecordingItem] = field(default_factory=dict)
    next_tag: int = 0


def instrument(module: Module, items: List[RecordingItem],
               next_tag: int = 0) -> InstrumentationResult:
    """Return a new module with one ``ptwrite`` per recording item.

    Items must reference points in ``module``; the defining instruction's
    destination register must match the item's register.
    """
    tag_map: Dict[int, RecordingItem] = {}

    by_block: Dict[Tuple[str, str], List[RecordingItem]] = {}
    for item in items:
        by_block.setdefault((item.point.func, item.point.block),
                            []).append(item)

    functions = dict(module.functions)
    for (func_name, block_label), block_items in by_block.items():
        func = module.function(func_name)
        instrs = list(func.block(block_label).instrs)
        # descending index keeps earlier indices valid while inserting
        for item in sorted(block_items, key=lambda i: i.point.index,
                           reverse=True):
            index = item.point.index
            if index >= len(instrs):
                raise IRError(f"recording point {item.point} out of range")
            defining = instrs[index]
            if defining.dest_register() != item.register:
                raise IRError(
                    f"recording point {item.point} defines "
                    f"{defining.dest_register()!r}, not {item.register!r}")
            tag = next_tag
            next_tag += 1
            tag_map[tag] = item
            instrs.insert(index + 1, _ptwrite(item.register, tag))
        if functions[func_name] is func:  # the function's first new block
            functions[func_name] = replace(func, blocks=dict(func.blocks))
        functions[func_name].blocks[block_label] = BasicBlock(
            block_label, tuple(instrs))

    new_module = replace(module, globals=dict(module.globals),
                         functions=functions)
    verify_module(new_module)
    return InstrumentationResult(module=new_module, tag_map=tag_map,
                                 next_tag=next_tag)
