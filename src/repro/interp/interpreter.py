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

Each basic block is compiled the first time a run enters it: every
instruction becomes one closure ``step(interp, thread, frame)`` with its
operand kinds (register, or an immediate masked in advance), width,
``BINOPS``/``CMPS`` entry and branch targets resolved once.  A step
returns ``None`` to fall through, a label to jump within the function, or
a signal (``_SWITCH``, ``_BLOCKED``, ``_DONE``) for calls, returns and
blocking.  The chunk loop in :meth:`Interpreter._run_chunk` keeps the
block and index in locals, checks the step budget once per chunk, and
applies the retirement rule: a blocked ``lock``/``join`` retires nothing,
a failing instruction raises before it counts, and the final ``ret`` of
``main`` halts without counting.  Compiled blocks live in a dict on the
interpreter, so they die with the run; steps take the interpreter as an
argument instead of capturing it, which keeps a finished run free of
reference cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import InterpError
from ..ir import instructions as ins
from ..ir.module import Function, Module, ProgramPoint
from ..ir.ops import BINOPS, CMPS
from ..ir.types import MASK64, mask, sign_extend
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


class _Trap(Exception):
    """Internal: a failing instruction; the chunk loop records it at the
    instruction's program point."""

    address = None

    def __init__(self, kind: FailureKind, message: str):
        self.kind = kind
        self.message = message


#: step results other than fall-through (``None``) and a jump (a label):
#: the frame changed (call/ret), the thread blocked (retires nothing),
#: the thread's last frame returned
_SWITCH, _BLOCKED, _DONE = object(), object(), object()

#: a compiled instruction
Step = Callable[["Interpreter", ThreadState, Frame], object]


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
        #: function name -> block label -> compiled steps
        self._compiled: Dict[str, Dict[str, List[Step]]] = {}

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
        """Run ``thread`` for up to ``quantum`` retired instructions.

        The current block and index live in locals and are written back
        to the frame whenever anyone may look at it: on a call, on a
        failure, before an ``on_step`` hook and when the chunk ends.
        """
        self.chunk_count += 1
        tracer = self.tracer
        tracer.begin_chunk(thread.tid, self.steps >> self.TS_SHIFT)
        limit = min(quantum, self.max_steps - self.steps)
        executed = 0
        frame = thread.frames[-1]
        label, index = frame.block, frame.index
        blocks, code = self._enter(frame.func, label)
        try:
            while executed < limit:
                nxt = code[index](self, thread, frame)
                if nxt is None:
                    index += 1
                elif nxt.__class__ is str:
                    label, index = nxt, 0
                    try:
                        code = blocks[nxt]
                    except KeyError:
                        blocks, code = self._enter(frame.func, nxt)
                elif nxt is _SWITCH:
                    # a call resumes after itself; after a ret this
                    # writes to the popped frame, which nobody reads
                    frame.block, frame.index = label, index + 1
                    frame = thread.frames[-1]
                    label, index = frame.block, frame.index
                    blocks, code = self._enter(frame.func, label)
                elif nxt is _BLOCKED:
                    break
                else:  # _DONE
                    executed += 1
                    break
                executed += 1
            else:
                if executed < quantum:  # the step budget ran out
                    frame.block, frame.index = label, index
                    if self.hang_as_failure:
                        self._fail_current(thread, FailureKind.HANG,
                                           "step budget exhausted")
                    raise InterpError("max_steps exceeded (possible hang)")
        except (MemoryFault, _Trap) as fault:
            frame.block, frame.index = label, index
            self._fail_current(thread, fault.kind, fault.message,
                               address=fault.address)
        finally:
            frame.block, frame.index = label, index
            self.steps += executed
            tracer.end_chunk(executed)

    def _enter(self, func: Function,
               label: str) -> Tuple[Dict[str, List[Step]], List[Step]]:
        """``func``'s compiled blocks and the steps of block ``label``,
        compiled on the run's first entry."""
        blocks = self._compiled.setdefault(func.name, {})
        code = blocks.get(label)
        if code is None:
            instrs = func.blocks[label].instrs
            code = [_COMPILERS[type(instr)](instr, func.name, self.module)
                    for instr in instrs]
            if self.on_step is not None:
                code = [_hooked(step, ProgramPoint(func.name, label, i),
                                instr)
                        for i, (step, instr) in enumerate(zip(code, instrs))]
            blocks[label] = code
        return blocks, code

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

    def _wake_joiners(self, tid: int) -> None:
        for other in self.threads:
            if other.status == "blocked-join" and other.wait_target == tid:
                other.status = "runnable"


# ----------------------------------------------------------------------
# instruction compilers: ``compile(instr, func_name, module) -> step``.
# A step never captures the interpreter: it arrives as an argument.


def _hooked(step: Step, point: ProgramPoint, instr: ins.Instr) -> Step:
    """``step`` preceded by the interpreter's ``on_step`` hook, which
    sees the frame positioned at ``point``."""
    label, index = point.block, point.index

    def hooked(interp, thread, frame):
        frame.block, frame.index = label, index
        interp.on_step(thread, point, instr)
        return step(interp, thread, frame)
    return hooked


def _unset(regs: Dict[str, int], func_name: str, *registers) -> InterpError:
    """The error for the first of ``registers`` that is unset."""
    name = next(reg for reg in registers if reg not in regs)
    return InterpError(f"read of unset register {name} in {func_name}")


def _operand(operand, func_name: str) -> Callable[[Dict[str, int]], int]:
    """``read(regs)`` for a register or an immediate operand."""
    if isinstance(operand, str):
        def read(regs):
            try:
                return regs[operand]
            except KeyError:
                raise _unset(regs, func_name, operand) from None
        return read
    value = mask(operand)
    return lambda regs: value


def _arith(dest: str, apply, lhs, rhs, width: int, func_name: str) -> Step:
    """``dest = apply(lhs, rhs, width)``.  Register-register and
    register-immediate operands, the only kinds the workloads use, are
    read inline."""
    if isinstance(lhs, str) and isinstance(rhs, str):
        def step(interp, thread, frame):
            regs = frame.regs
            try:
                a, b = regs[lhs], regs[rhs]
            except KeyError:
                raise _unset(regs, func_name, lhs, rhs) from None
            regs[dest] = apply(a, b, width)
    elif isinstance(lhs, str):
        imm = mask(rhs)

        def step(interp, thread, frame):
            regs = frame.regs
            try:
                a = regs[lhs]
            except KeyError:
                raise _unset(regs, func_name, lhs) from None
            regs[dest] = apply(a, imm, width)
    else:
        read_lhs = _operand(lhs, func_name)
        read_rhs = _operand(rhs, func_name)

        def step(interp, thread, frame):
            regs = frame.regs
            regs[dest] = apply(read_lhs(regs), read_rhs(regs), width)
    return step


def _checked_div(apply, width: int, message: str):
    """``apply`` raising a DIV_BY_ZERO trap on a zero divisor."""
    width_mask = (1 << width) - 1

    def div(lhs, rhs, width):
        if not rhs & width_mask:
            raise _Trap(FailureKind.DIV_BY_ZERO, message)
        return apply(lhs, rhs, width)
    return div


def _compile_binop(instr: ins.BinOp, func_name, module) -> Step:
    apply, width = BINOPS[instr.op], instr.width
    if instr.op in ("udiv", "sdiv", "urem", "srem"):
        apply = _checked_div(apply, width, f"{instr.op} by zero")
    return _arith(instr.dest, apply, instr.lhs, instr.rhs, width, func_name)


def _compile_cmp(instr: ins.Cmp, func_name, module) -> Step:
    return _arith(instr.dest, CMPS[instr.op], instr.lhs, instr.rhs,
                  instr.width, func_name)


def _compile_const(instr: ins.Const, func_name, module) -> Step:
    dest, value = instr.dest, mask(instr.value)

    def step(interp, thread, frame):
        frame.regs[dest] = value
    return step


def _compile_select(instr: ins.Select, func_name, module) -> Step:
    dest = instr.dest
    read_cond = _operand(instr.cond, func_name)
    read_true = _operand(instr.if_true, func_name)
    read_false = _operand(instr.if_false, func_name)

    def step(interp, thread, frame):
        regs = frame.regs
        chosen = read_true if read_cond(regs) != 0 else read_false
        regs[dest] = chosen(regs)
    return step


def _compile_trunc(instr: ins.Trunc, func_name, module) -> Step:
    dest, read = instr.dest, _operand(instr.value, func_name)
    width_mask = (1 << instr.width) - 1

    def step(interp, thread, frame):
        regs = frame.regs
        regs[dest] = read(regs) & width_mask
    return step


def _compile_sext(instr: ins.SExt, func_name, module) -> Step:
    dest, read = instr.dest, _operand(instr.value, func_name)
    from_width = instr.from_width

    def step(interp, thread, frame):
        regs = frame.regs
        regs[dest] = sign_extend(read(regs), from_width)
    return step


def _compile_global(instr: ins.GlobalAddr, func_name, module) -> Step:
    dest, name = instr.dest, instr.name

    def step(interp, thread, frame):
        frame.regs[dest] = interp.memory.global_addrs[name]
    return step


def _compile_alloca(instr: ins.FrameAlloc, func_name, module) -> Step:
    dest, size = instr.dest, instr.size
    name = f"{func_name}.{instr.name}"

    def step(interp, thread, frame):
        obj = interp.memory.alloc_stack(name, size)
        frame.stack_objs.append(obj)
        frame.regs[dest] = obj.base
    return step


def _compile_malloc(instr: ins.HeapAlloc, func_name, module) -> Step:
    dest, read = instr.dest, _operand(instr.size, func_name)

    def step(interp, thread, frame):
        regs = frame.regs
        regs[dest] = interp.memory.alloc_heap(read(regs)).base
    return step


def _compile_free(instr: ins.HeapFree, func_name, module) -> Step:
    read = _operand(instr.addr, func_name)

    def step(interp, thread, frame):
        interp.memory.free_heap(read(frame.regs))
    return step


def _compile_gep(instr: ins.Gep, func_name, module) -> Step:
    dest, scale = instr.dest, instr.scale
    read_base = _operand(instr.base, func_name)
    read_index = _operand(instr.index, func_name)

    def step(interp, thread, frame):
        regs = frame.regs
        regs[dest] = (read_base(regs) + read_index(regs) * scale) & MASK64
    return step


def _compile_load(instr: ins.Load, func_name, module) -> Step:
    dest, size = instr.dest, instr.size
    read = _operand(instr.addr, func_name)

    def step(interp, thread, frame):
        regs = frame.regs
        regs[dest] = interp.memory.load(read(regs), size)
    return step


def _compile_store(instr: ins.Store, func_name, module) -> Step:
    size = instr.size
    read_addr = _operand(instr.addr, func_name)
    read_value = _operand(instr.value, func_name)

    def step(interp, thread, frame):
        regs = frame.regs
        addr = read_addr(regs)
        interp.memory.store(addr, read_value(regs), size)
    return step


def _compile_jmp(instr: ins.Jmp, func_name, module) -> Step:
    label = instr.label

    def step(interp, thread, frame):
        return label
    return step


def _compile_br(instr: ins.Br, func_name, module) -> Step:
    cond, if_true, if_false = instr.cond, instr.if_true, instr.if_false
    if isinstance(cond, str):
        def step(interp, thread, frame):
            try:
                taken = frame.regs[cond] != 0
            except KeyError:
                raise _unset(frame.regs, func_name, cond) from None
            interp.branch_count += 1
            interp.tracer.on_branch(taken)
            return if_true if taken else if_false
        return step
    taken = mask(cond) != 0
    target = if_true if taken else if_false

    def step(interp, thread, frame):
        interp.branch_count += 1
        interp.tracer.on_branch(taken)
        return target
    return step


def _callee(instr, func_name: str, module: Module):
    """A call's or spawn's callee, its entry label and one
    ``(param, read)`` per argument."""
    callee = module.function(instr.func)
    args = [(param, _operand(arg, func_name))
            for param, arg in zip(callee.params, instr.args)]
    return callee, next(iter(callee.blocks)), args


def _compile_call(instr: ins.Call, func_name, module) -> Step:
    callee, entry, args = _callee(instr, func_name, module)
    ret_reg = instr.dest

    def step(interp, thread, frame):
        frames = thread.frames
        if len(frames) >= interp.stack_limit:
            raise _Trap(FailureKind.STACK_OVERFLOW,
                        f"call depth {len(frames)}")
        regs = frame.regs
        frames.append(Frame(callee, entry, 0,
                            {param: read(regs) for param, read in args},
                            ret_reg=ret_reg))
        return _SWITCH
    return step


def _compile_ret(instr: ins.Ret, func_name, module) -> Step:
    read = _operand(0 if instr.value is None else instr.value, func_name)

    def step(interp, thread, frame):
        value = read(frame.regs)
        for obj in frame.stack_objs:
            interp.memory.release_stack(obj)
        frames = thread.frames
        frames.pop()
        if not frames:
            thread.status = "done"
            thread.return_value = value
            interp._wake_joiners(thread.tid)
            if thread.tid == 0:
                interp._main_returned = value
                raise _Halt()
            return _DONE
        if frame.ret_reg is not None:
            frames[-1].regs[frame.ret_reg] = value
        return _SWITCH
    return step


def _compile_input(instr: ins.Input, func_name, module) -> Step:
    dest, stream, size = instr.dest, instr.stream, instr.size

    def step(interp, thread, frame):
        frame.regs[dest] = int.from_bytes(interp.env.read(stream, size),
                                          "little")
    return step


def _compile_output(instr: ins.Output, func_name, module) -> Step:
    stream, size = instr.stream, instr.size
    read, size_mask = _operand(instr.value, func_name), (1 << size * 8) - 1

    def step(interp, thread, frame):
        value = read(frame.regs)
        buf = interp.outputs.setdefault(stream, bytearray())
        buf += (value & size_mask).to_bytes(size, "little")
    return step


def _compile_assert(instr: ins.Assert, func_name, module) -> Step:
    read, message = _operand(instr.cond, func_name), instr.message

    def step(interp, thread, frame):
        if read(frame.regs) == 0:
            raise _Trap(FailureKind.ASSERT, message)
    return step


def _compile_abort(instr: ins.Abort, func_name, module) -> Step:
    message = instr.message

    def step(interp, thread, frame):
        raise _Trap(FailureKind.ABORT, message)
    return step


def _compile_ptwrite(instr: ins.PtWrite, func_name, module) -> Step:
    read, tag = _operand(instr.value, func_name), instr.tag

    def step(interp, thread, frame):
        value = read(frame.regs)
        interp.ptwrite_count += 1
        interp.tracer.on_ptwrite(tag, value)
    return step


def _compile_spawn(instr: ins.Spawn, func_name, module) -> Step:
    callee, entry, args = _callee(instr, func_name, module)
    dest = instr.dest

    def step(interp, thread, frame):
        regs = frame.regs
        new_regs = {param: read(regs) for param, read in args}
        threads = interp.threads
        tid = len(threads)
        threads.append(ThreadState(tid, [Frame(callee, entry, 0,
                                               new_regs)]))
        regs[dest] = tid
    return step


def _compile_join(instr: ins.Join, func_name, module) -> Step:
    read = _operand(instr.tid, func_name)

    def step(interp, thread, frame):
        tid = read(frame.regs)
        threads = interp.threads
        if tid >= len(threads):
            raise InterpError(f"join of unknown thread {tid}")
        if threads[tid].status != "done":
            thread.status = "blocked-join"
            thread.wait_target = tid
            return _BLOCKED
        return None
    return step


def _compile_lock(instr: ins.Lock, func_name, module) -> Step:
    read = _operand(instr.mutex, func_name)

    def step(interp, thread, frame):
        mutex = read(frame.regs)
        owner = interp.mutexes.get(mutex)
        if owner is not None and owner != thread.tid:
            thread.status = "blocked-lock"
            thread.wait_target = mutex
            return _BLOCKED
        interp.mutexes[mutex] = thread.tid
        return None
    return step


def _compile_unlock(instr: ins.Unlock, func_name, module) -> Step:
    read = _operand(instr.mutex, func_name)

    def step(interp, thread, frame):
        mutex = read(frame.regs)
        if interp.mutexes.get(mutex) != thread.tid:
            raise InterpError(
                f"thread {thread.tid} unlocking mutex {mutex} it doesn't own")
        interp.mutexes[mutex] = None
        for other in interp.threads:
            if other.status == "blocked-lock" and other.wait_target == mutex:
                other.status = "runnable"
    return step


def _compile_nop(instr: ins.Nop, func_name, module) -> Step:
    def step(interp, thread, frame):
        pass
    return step


#: instruction type -> compiler
_COMPILERS = {
    ins.Const: _compile_const,
    ins.BinOp: _compile_binop,
    ins.Cmp: _compile_cmp,
    ins.Select: _compile_select,
    ins.Trunc: _compile_trunc,
    ins.SExt: _compile_sext,
    ins.GlobalAddr: _compile_global,
    ins.FrameAlloc: _compile_alloca,
    ins.HeapAlloc: _compile_malloc,
    ins.HeapFree: _compile_free,
    ins.Gep: _compile_gep,
    ins.Load: _compile_load,
    ins.Store: _compile_store,
    ins.Jmp: _compile_jmp,
    ins.Br: _compile_br,
    ins.Call: _compile_call,
    ins.Ret: _compile_ret,
    ins.Input: _compile_input,
    ins.Output: _compile_output,
    ins.Assert: _compile_assert,
    ins.Abort: _compile_abort,
    ins.PtWrite: _compile_ptwrite,
    ins.Spawn: _compile_spawn,
    ins.Join: _compile_join,
    ins.Lock: _compile_lock,
    ins.Unlock: _compile_unlock,
    ins.Nop: _compile_nop,
}
