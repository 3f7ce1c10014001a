"""The per-instruction interpreter loop, kept as a test oracle.

:class:`ReferenceInterpreter` is the stepping code the compiled
interpreter replaced, verbatim: every step looks the instruction up in
its block, dispatches on its type, evaluates each operand with an
``isinstance`` check and a ``mask``, applies ops by name and advances
the frame's index.  It shares everything else (scheduler, frames,
failures, ``run``) with :class:`~repro.interp.interpreter.Interpreter`,
so a differential test against it isolates the chunk loop and the
instruction semantics.  It is a test double, not an option: tests swap
it in with ``monkeypatch``.
"""

from __future__ import annotations

from repro.errors import InterpError
from repro.interp.failures import FailureKind, MemoryFault
from repro.interp.interpreter import Frame, Interpreter, ThreadState, _Halt
from repro.ir import instructions as ins
from repro.ir.module import ProgramPoint
from repro.ir.ops import apply_binop, apply_cmp
from repro.ir.types import mask, sign_extend


class ReferenceInterpreter(Interpreter):
    """Executes one instruction per ``_step``; the compiled loop's oracle."""

    def _run_chunk(self, thread: ThreadState, quantum: int,
                   hooked=None) -> None:
        # ``hooked`` holds the compiled loop's hook-wrapped code; this
        # loop calls the hook itself
        self.chunk_count += 1
        self.tracer.begin_chunk(thread.tid, self.steps >> self.TS_SHIFT)
        executed = 0
        try:
            while executed < quantum and thread.status == "runnable":
                if self.steps >= self.max_steps:
                    if self.hang_as_failure:
                        self._fail_current(thread, FailureKind.HANG,
                                           "step budget exhausted")
                    raise InterpError("max_steps exceeded (possible hang)")
                advanced = self._step(thread)
                if advanced:
                    executed += 1
                else:
                    break  # blocked without executing
        finally:
            self.tracer.end_chunk(executed)

    # ------------------------------------------------------------------
    # single step

    def _step(self, thread: ThreadState) -> bool:
        """Execute one instruction of ``thread``.

        Returns True if an instruction retired, False if the thread
        blocked before executing.
        """
        frame = thread.frame
        block = frame.func.blocks[frame.block]
        instr = block.instrs[frame.index]
        handler = self._DISPATCH[type(instr)]
        if self.on_step is not None:
            self.on_step(thread, ProgramPoint(frame.func.name, frame.block,
                                              frame.index), instr)
        try:
            advanced = handler(self, thread, frame, instr)
        except MemoryFault as fault:
            self._fail_current(thread, fault.kind, fault.message,
                               address=fault.address)
            return True  # unreachable; _fail_current raises
        if advanced:
            self.steps += 1
        return advanced

    def _advance(self, frame: Frame) -> None:
        frame.index += 1

    # ------------------------------------------------------------------
    # operand evaluation

    def _value(self, frame: Frame, operand) -> int:
        if isinstance(operand, str):
            try:
                return frame.regs[operand]
            except KeyError:
                raise InterpError(
                    f"read of unset register {operand} in {frame.func.name}"
                ) from None
        return mask(operand)

    # ------------------------------------------------------------------
    # instruction handlers (each returns True if the instruction retired)

    def _exec_const(self, thread, frame, instr) -> bool:
        frame.regs[instr.dest] = mask(instr.value)
        self._advance(frame)
        return True

    def _exec_binop(self, thread, frame, instr) -> bool:
        lhs = self._value(frame, instr.lhs)
        rhs = self._value(frame, instr.rhs)
        width = instr.width
        op = instr.op
        if op in ("udiv", "sdiv", "urem", "srem") and mask(rhs, width) == 0:
            self._fail_current(thread, FailureKind.DIV_BY_ZERO,
                               f"{op} by zero")
        frame.regs[instr.dest] = apply_binop(op, lhs, rhs, width)
        self._advance(frame)
        return True

    def _exec_cmp(self, thread, frame, instr) -> bool:
        lhs = self._value(frame, instr.lhs)
        rhs = self._value(frame, instr.rhs)
        frame.regs[instr.dest] = apply_cmp(instr.op, lhs, rhs, instr.width)
        self._advance(frame)
        return True

    def _exec_select(self, thread, frame, instr) -> bool:
        cond = self._value(frame, instr.cond)
        chosen = instr.if_true if cond != 0 else instr.if_false
        frame.regs[instr.dest] = self._value(frame, chosen)
        self._advance(frame)
        return True

    def _exec_trunc(self, thread, frame, instr) -> bool:
        frame.regs[instr.dest] = mask(self._value(frame, instr.value),
                                      instr.width)
        self._advance(frame)
        return True

    def _exec_sext(self, thread, frame, instr) -> bool:
        frame.regs[instr.dest] = sign_extend(
            self._value(frame, instr.value), instr.from_width)
        self._advance(frame)
        return True

    def _exec_global(self, thread, frame, instr) -> bool:
        frame.regs[instr.dest] = self.memory.global_addrs[instr.name]
        self._advance(frame)
        return True

    def _exec_alloca(self, thread, frame, instr) -> bool:
        obj = self.memory.alloc_stack(
            f"{frame.func.name}.{instr.name}", instr.size)
        frame.stack_objs.append(obj)
        frame.regs[instr.dest] = obj.base
        self._advance(frame)
        return True

    def _exec_malloc(self, thread, frame, instr) -> bool:
        size = self._value(frame, instr.size)
        obj = self.memory.alloc_heap(size)
        frame.regs[instr.dest] = obj.base
        self._advance(frame)
        return True

    def _exec_free(self, thread, frame, instr) -> bool:
        addr = self._value(frame, instr.addr)
        self.memory.free_heap(addr)
        self._advance(frame)
        return True

    def _exec_gep(self, thread, frame, instr) -> bool:
        base = self._value(frame, instr.base)
        index = self._value(frame, instr.index)
        frame.regs[instr.dest] = mask(base + index * instr.scale)
        self._advance(frame)
        return True

    def _exec_load(self, thread, frame, instr) -> bool:
        addr = self._value(frame, instr.addr)
        frame.regs[instr.dest] = self.memory.load(addr, instr.size)
        self._advance(frame)
        return True

    def _exec_store(self, thread, frame, instr) -> bool:
        addr = self._value(frame, instr.addr)
        value = self._value(frame, instr.value)
        self.memory.store(addr, value, instr.size)
        self._advance(frame)
        return True

    def _exec_jmp(self, thread, frame, instr) -> bool:
        frame.block = instr.label
        frame.index = 0
        return True

    def _exec_br(self, thread, frame, instr) -> bool:
        taken = self._value(frame, instr.cond) != 0
        self.branch_count += 1
        self.tracer.on_branch(taken)
        frame.block = instr.if_true if taken else instr.if_false
        frame.index = 0
        return True

    def _exec_call(self, thread, frame, instr) -> bool:
        if len(thread.frames) >= self.stack_limit:
            self._fail_current(thread, FailureKind.STACK_OVERFLOW,
                               f"call depth {len(thread.frames)}")
        callee = self.module.function(instr.func)
        regs = {p: self._value(frame, a)
                for p, a in zip(callee.params, instr.args)}
        self._advance(frame)  # return continues after the call
        thread.frames.append(Frame(callee, next(iter(callee.blocks)), 0,
                                   regs, ret_reg=instr.dest))
        return True

    def _exec_ret(self, thread, frame, instr) -> bool:
        value = 0 if instr.value is None else self._value(frame, instr.value)
        for obj in frame.stack_objs:
            self.memory.release_stack(obj)
        thread.frames.pop()
        if not thread.frames:
            thread.status = "done"
            thread.return_value = value
            self._wake_joiners(thread.tid)
            if thread.tid == 0:
                self._main_returned = value
                raise _Halt()
            return True
        caller = thread.frame
        ret_reg = frame.ret_reg
        if ret_reg is not None:
            caller.regs[ret_reg] = value
        return True

    def _exec_input(self, thread, frame, instr) -> bool:
        data = self.env.read(instr.stream, instr.size)
        frame.regs[instr.dest] = int.from_bytes(data, "little")
        self._advance(frame)
        return True

    def _exec_output(self, thread, frame, instr) -> bool:
        value = self._value(frame, instr.value)
        buf = self.outputs.setdefault(instr.stream, bytearray())
        buf += mask(value, instr.size * 8).to_bytes(instr.size, "little")
        self._advance(frame)
        return True

    def _exec_assert(self, thread, frame, instr) -> bool:
        if self._value(frame, instr.cond) == 0:
            self._fail_current(thread, FailureKind.ASSERT, instr.message)
        self._advance(frame)
        return True

    def _exec_abort(self, thread, frame, instr) -> bool:
        self._fail_current(thread, FailureKind.ABORT, instr.message)
        return True  # unreachable

    def _exec_ptwrite(self, thread, frame, instr) -> bool:
        value = self._value(frame, instr.value)
        self.ptwrite_count += 1
        self.tracer.on_ptwrite(instr.tag, value)
        self._advance(frame)
        return True

    def _exec_spawn(self, thread, frame, instr) -> bool:
        callee = self.module.function(instr.func)
        regs = {p: self._value(frame, a)
                for p, a in zip(callee.params, instr.args)}
        tid = len(self.threads)
        self.threads.append(ThreadState(
            tid, [Frame(callee, next(iter(callee.blocks)), 0, regs)]))
        frame.regs[instr.dest] = tid
        self._advance(frame)
        return True

    def _exec_join(self, thread, frame, instr) -> bool:
        tid = self._value(frame, instr.tid)
        if tid >= len(self.threads):
            raise InterpError(f"join of unknown thread {tid}")
        target = self.threads[tid]
        if target.status != "done":
            thread.status = "blocked-join"
            thread.wait_target = tid
            return False
        self._advance(frame)
        return True

    def _exec_lock(self, thread, frame, instr) -> bool:
        mutex = self._value(frame, instr.mutex)
        owner = self.mutexes.get(mutex)
        if owner is not None and owner != thread.tid:
            thread.status = "blocked-lock"
            thread.wait_target = mutex
            return False
        self.mutexes[mutex] = thread.tid
        self._advance(frame)
        return True

    def _exec_unlock(self, thread, frame, instr) -> bool:
        mutex = self._value(frame, instr.mutex)
        if self.mutexes.get(mutex) != thread.tid:
            raise InterpError(
                f"thread {thread.tid} unlocking mutex {mutex} it doesn't own")
        self.mutexes[mutex] = None
        for other in self.threads:
            if other.status == "blocked-lock" and other.wait_target == mutex:
                other.status = "runnable"
        self._advance(frame)
        return True

    def _exec_nop(self, thread, frame, instr) -> bool:
        self._advance(frame)
        return True

    #: instruction type -> handler, called with ``self`` first.  Plain
    #: functions, not bound methods: a table of bound methods on the
    #: instance is a reference cycle that keeps every finished run
    #: (its terms, trace and memory) alive until the cyclic collector
    #: runs.
    _DISPATCH = {
        ins.Const: _exec_const,
        ins.BinOp: _exec_binop,
        ins.Cmp: _exec_cmp,
        ins.Select: _exec_select,
        ins.Trunc: _exec_trunc,
        ins.SExt: _exec_sext,
        ins.GlobalAddr: _exec_global,
        ins.FrameAlloc: _exec_alloca,
        ins.HeapAlloc: _exec_malloc,
        ins.HeapFree: _exec_free,
        ins.Gep: _exec_gep,
        ins.Load: _exec_load,
        ins.Store: _exec_store,
        ins.Jmp: _exec_jmp,
        ins.Br: _exec_br,
        ins.Call: _exec_call,
        ins.Ret: _exec_ret,
        ins.Input: _exec_input,
        ins.Output: _exec_output,
        ins.Assert: _exec_assert,
        ins.Abort: _exec_abort,
        ins.PtWrite: _exec_ptwrite,
        ins.Spawn: _exec_spawn,
        ins.Join: _exec_join,
        ins.Lock: _exec_lock,
        ins.Unlock: _exec_unlock,
        ins.Nop: _exec_nop,
    }

