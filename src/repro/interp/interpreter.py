"""The concrete interpreter: ER's stand-in for a production machine.

Runs a :class:`~repro.ir.module.Module` against an
:class:`~repro.interp.env.Environment`, optionally streaming control-flow
and key-data-value events into a tracer (the Intel PT simulator).  Failures
(memory traps, asserts, aborts, hangs) terminate the run and are reported
as :class:`~repro.interp.failures.FailureInfo`.

Multi-threading uses a deterministic round-robin scheduler with an
instruction quantum taken from the environment.  Context switches happen
only at quantum boundaries or blocking operations — the *coarse
interleaving hypothesis* the paper relies on (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import InterpError
from ..ir import instructions as ins
from ..ir.module import Function, Module, ProgramPoint
from ..ir.ops import apply_binop, apply_cmp
from ..ir.types import mask, sign_extend
from .env import Environment
from .failures import FailureInfo, FailureKind, MemoryFault
from .memory import Memory, MemoryObject


class NullTracer:
    """Tracer that drops everything (tracing disabled)."""

    def begin_chunk(self, tid: int, timestamp: int) -> None:
        pass

    def on_branch(self, taken: bool) -> None:
        pass

    def on_ptwrite(self, tag: int, value: int) -> None:
        pass

    def end_chunk(self, n_instrs: int) -> None:
        pass


@dataclass
class Frame:
    func: Function
    block: str
    index: int
    regs: Dict[str, int]
    stack_objs: List[MemoryObject] = field(default_factory=list)
    ret_reg: Optional[str] = None


@dataclass
class ThreadState:
    tid: int
    frames: List[Frame]
    status: str = "runnable"  # runnable | blocked-join | blocked-lock | done
    wait_target: int = -1
    return_value: int = 0

    @property
    def frame(self) -> Frame:
        return self.frames[-1]

    def call_stack(self) -> Tuple[str, ...]:
        return tuple(f.func.name for f in self.frames)

    def current_point(self) -> ProgramPoint:
        frame = self.frame
        index = min(frame.index, len(frame.func.blocks[frame.block].instrs) - 1)
        return ProgramPoint(frame.func.name, frame.block, index)


@dataclass
class RunResult:
    """Outcome of one interpreted execution."""

    failure: Optional[FailureInfo]
    return_value: int
    instr_count: int
    outputs: Dict[str, bytes]
    env: Environment
    chunk_count: int = 0
    ptwrite_count: int = 0
    branch_count: int = 0
    thread_count: int = 1

    @property
    def failed(self) -> bool:
        return self.failure is not None


class _Halt(Exception):
    """Internal: stop the run (failure or main returned)."""


class Interpreter:
    """Executes a module; deterministic for a fixed environment."""

    #: timestamp granularity: ts = instr_count >> TS_SHIFT (coarse MTC)
    TS_SHIFT = 4

    def __init__(self, module: Module, env: Environment, *,
                 tracer=None, max_steps: int = 20_000_000,
                 stack_limit: int = 512,
                 hang_as_failure: bool = False,
                 on_step: Optional[Callable] = None):
        self.module = module
        self.env = env
        self.tracer = tracer if tracer is not None else NullTracer()
        self.max_steps = max_steps
        self.stack_limit = stack_limit
        self.hang_as_failure = hang_as_failure
        self.on_step = on_step

        self.memory = Memory(module)
        self.threads: List[ThreadState] = []
        self.mutexes: Dict[int, Optional[int]] = {}
        self.outputs: Dict[str, bytearray] = {}
        self.steps = 0
        self.branch_count = 0
        self.ptwrite_count = 0
        self.chunk_count = 0
        self._failure: Optional[FailureInfo] = None
        self._main_returned: Optional[int] = None
        self._rr_cursor = 0

    # ------------------------------------------------------------------
    # public API

    def run(self, args: Tuple[int, ...] = ()) -> RunResult:
        main = self.module.function("main")
        if len(args) != len(main.params):
            raise InterpError(
                f"main expects {len(main.params)} args, got {len(args)}")
        regs = {p: mask(a) for p, a in zip(main.params, args)}
        frame = Frame(main, next(iter(main.blocks)), 0, regs)
        self.threads = [ThreadState(0, [frame])]
        try:
            self._schedule()
        except _Halt:
            pass
        return RunResult(
            failure=self._failure,
            return_value=self._main_returned or 0,
            instr_count=self.steps,
            outputs={k: bytes(v) for k, v in self.outputs.items()},
            env=self.env,
            chunk_count=self.chunk_count,
            ptwrite_count=self.ptwrite_count,
            branch_count=self.branch_count,
            thread_count=len(self.threads),
        )

    # ------------------------------------------------------------------
    # scheduler

    def _runnable(self) -> List[ThreadState]:
        return [t for t in self.threads if t.status == "runnable"]

    def _schedule(self) -> None:
        quantum = max(1, self.env.quantum)
        while True:
            runnable = self._runnable()
            if not runnable:
                if any(t.status.startswith("blocked") for t in self.threads):
                    self._fail_current(self.threads[0], FailureKind.HANG,
                                       "deadlock: all threads blocked")
                return
            # round-robin: rotate through runnable threads in tid order
            thread = runnable[self._rr_cursor % len(runnable)]
            self._rr_cursor += 1
            self._run_chunk(thread, quantum)

    def _run_chunk(self, thread: ThreadState, quantum: int) -> None:
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

    def _fail_current(self, thread: ThreadState, kind: FailureKind,
                      message: str = "", address: Optional[int] = None):
        self._failure = FailureInfo(
            kind=kind,
            point=thread.current_point(),
            call_stack=thread.call_stack(),
            message=message,
            tid=thread.tid,
            address=address,
        )
        raise _Halt()

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

    def _wake_joiners(self, tid: int) -> None:
        for other in self.threads:
            if other.status == "blocked-join" and other.wait_target == tid:
                other.status = "runnable"
