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

Each basic block is compiled the first time any run enters it: every
instruction becomes one closure ``step(interp, thread, frame)`` with its
operand kinds (register, or an immediate masked in advance), width,
``BINOPS``/``CMPS`` entry and branch targets resolved once.  A step
returns ``None`` to fall through, a label to jump within the function, or
a signal (``_SWITCH``, ``_BLOCKED``, ``_DONE``) for calls, returns and
blocking.  The chunk loop in :meth:`Interpreter._run_chunk` keeps the
block and index in locals, checks the step budget once per chunk, and
applies the retirement rule: a blocked ``lock``/``join`` retires nothing,
a failing instruction raises before it counts, and the final ``ret`` of
``main`` halts without counting.

Blocks are immutable and shared between a module and its instrumented
successors, so a block's code is kept on the block (``_compiled``) and
reused by every later run in the process.  Code may therefore capture
nothing that differs between modules sharing the block, and nothing
that leads back to the block: steps take the interpreter as an argument,
and a call or spawn looks its callee up in the running module.  A run
with an ``on_step`` hook wraps each step in the hook, once per run, and
never puts that code on a block.

Straight-line code runs faster still: each maximal run of register,
memory, ``input``, ``ptwrite`` and division instructions plus the
``br``/``jmp`` closing it is one generated function (see *fused runs*
below), called when the whole run fits in the chunk's remaining budget.
An instruction of a run that must fail hands its index back, and the
chunk loop runs its closure, which raises the failure.  Branch steps
append their outcome to the tracer's ``tnt_bits`` list (see
:class:`NullTracer`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import InterpError
from ..ir import instructions as ins
from ..ir.module import BasicBlock, Function, Module, ProgramPoint
from ..ir.ops import BINOPS, CMPS
from ..ir.types import MASK64, mask, sign_extend, to_signed
from .env import Environment
from .failures import FailureInfo, FailureKind, MemoryFault
from .memory import Memory, MemoryObject


class NullTracer:
    """Tracer that drops everything (tracing disabled).

    The tracer protocol: the interpreter appends each conditional
    branch's outcome to ``tnt_bits`` and calls ``begin_chunk``,
    ``on_ptwrite`` and ``end_chunk``.  A tracer consumes the pending bits
    in the last two calls and empties the list in place; it never binds
    ``tnt_bits`` to another list.  ``on_branch(taken)`` takes one bit from
    a caller that steps by hand.
    """

    def __init__(self):
        self.tnt_bits: List[bool] = []

    def begin_chunk(self, tid: int, timestamp: int) -> None:
        pass

    def on_branch(self, taken: bool) -> None:
        pass

    def on_ptwrite(self, tag: int, value: int) -> None:
        self.tnt_bits.clear()

    def end_chunk(self, n_instrs: int) -> None:
        self.tnt_bits.clear()


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
        # a hooked run's code, which never goes on the blocks (see _code)
        hooked = {} if self.on_step is not None else None
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
            self._run_chunk(thread, quantum, hooked)

    def _run_chunk(self, thread: ThreadState, quantum: int,
                   hooked: Optional[Dict[int, list]]) -> None:
        """Run ``thread`` for up to ``quantum`` retired instructions.

        The current block and index live in locals and are written back
        to the frame whenever anyone may look at it: on a call, on a
        failure, before an ``on_step`` hook and when the chunk ends.
        """
        self.chunk_count += 1
        tracer = self.tracer
        bits = tracer.tnt_bits
        tracer.begin_chunk(thread.tid, self.steps >> self.TS_SHIFT)
        limit = min(quantum, self.max_steps - self.steps)
        executed = 0
        frame = thread.frames[-1]
        regs = frame.regs
        label, index = frame.block, frame.index
        blocks = frame.func.blocks
        code = self._code(frame.func.name, blocks[label], hooked)
        try:
            while executed < limit:
                step = code[index]
                if step.__class__ is not tuple:
                    nxt = step(self, thread, frame)
                else:  # a fused run: (size, run, its first instruction)
                    size, run, step = step
                    if size > limit - executed:  # cut by the chunk edge
                        nxt = step(self, thread, frame)
                    else:
                        nxt = run(self, regs, bits)
                        if nxt.__class__ is int:
                            # instruction ``nxt`` of the run must fail:
                            # retire the ones before it and run it alone,
                            # which raises its error
                            executed += nxt
                            index += nxt
                            if nxt:
                                step = code[index]
                            nxt = step(self, thread, frame)
                        else:  # all retired; the last one's result
                            executed += size - 1  # is handled below
                            index += size - 1
                if nxt is None:
                    index += 1
                elif nxt.__class__ is str:
                    label, index = nxt, 0
                    block = blocks[nxt]
                    code = block._compiled
                    if code is None or hooked is not None:
                        code = self._code(frame.func.name, block, hooked)
                elif nxt is _SWITCH:
                    # a call resumes after itself; after a ret this
                    # writes to the popped frame, which nobody reads
                    frame.block, frame.index = label, index + 1
                    frame = thread.frames[-1]
                    regs = frame.regs
                    label, index = frame.block, frame.index
                    blocks = frame.func.blocks
                    code = self._code(frame.func.name, blocks[label], hooked)
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
            self.branch_count += len(bits)
            tracer.end_chunk(executed)

    def _code(self, func_name: str, block: BasicBlock,
              hooked: Optional[Dict[int, list]]) -> list:
        """The code of ``block`` of function ``func_name``: one step per
        instruction, and at the start of each fused run
        ``(size, run, step)`` instead.  The first unhooked run to enter
        the block compiles it and keeps the code on the block.  A hooked
        run wraps each step in its hook instead, once per run: its code
        lives in ``hooked``, by block id."""
        code = block._compiled if hooked is None else hooked.get(id(block))
        if code is None:
            instrs = block.instrs
            code = [_COMPILERS[type(instr)](instr, func_name, self.module)
                    for instr in instrs]
            if hooked is not None:
                code = hooked[id(block)] = [
                    _hooked(step, ProgramPoint(func_name, block.label, i),
                            instr)
                    for i, (step, instr) in enumerate(zip(code, instrs))]
            else:
                for start, end in _straight_runs(instrs):
                    code[start] = (end - start,
                                   _fused_run(instrs[start:end]),
                                   code[start])
                object.__setattr__(block, "_compiled", code)
        return code

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
    if instr.op in _DIVISIONS:
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
            interp.tracer.tnt_bits.append(taken)
            return if_true if taken else if_false
        return step
    taken = mask(cond) != 0
    target = if_true if taken else if_false

    def step(interp, thread, frame):
        interp.tracer.tnt_bits.append(taken)
        return target
    return step


def _callee(instr, func_name: str, module: Module):
    """A call's or spawn's callee name, its entry label and one
    ``(param, read)`` per argument.  Instrumentation keeps a function's
    params and entry label, so these hold in every module sharing the
    calling block; the callee itself is looked up in the running
    module."""
    callee = module.function(instr.func)
    args = [(param, _operand(arg, func_name))
            for param, arg in zip(callee.params, instr.args)]
    return instr.func, next(iter(callee.blocks)), args


def _compile_call(instr: ins.Call, func_name, module) -> Step:
    callee, entry, args = _callee(instr, func_name, module)
    ret_reg = instr.dest

    def step(interp, thread, frame):
        frames = thread.frames
        if len(frames) >= interp.stack_limit:
            raise _Trap(FailureKind.STACK_OVERFLOW,
                        f"call depth {len(frames)}")
        regs = frame.regs
        frames.append(Frame(interp.module.functions[callee], entry, 0,
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
        tracer = interp.tracer
        interp.branch_count += len(tracer.tnt_bits)
        tracer.on_ptwrite(tag, value)
    return step


def _compile_spawn(instr: ins.Spawn, func_name, module) -> Step:
    callee, entry, args = _callee(instr, func_name, module)
    dest = instr.dest

    def step(interp, thread, frame):
        regs = frame.regs
        new_regs = {param: read(regs) for param, read in args}
        threads = interp.threads
        tid = len(threads)
        threads.append(ThreadState(tid, [Frame(
            interp.module.functions[callee], entry, 0, new_regs)]))
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


# ----------------------------------------------------------------------
# fused runs: a block's straight-line code, up to its first instruction
# that does not fuse (a call, return, allocation, free, thread operation,
# output, select, assert or abort) and with the br/jmp that closes it, as
# one generated function ``run(interp, regs, bits)``.  It returns what
# the run's last step would (a label, or ``None`` when the run stops
# before an instruction that does not fuse), or the index in the run of
# an instruction that must fail: one that reads an unset register or
# global (``KeyError``), makes an access ``Memory.check_access`` rejects
# (``MemoryFault``) or divides by zero.  Such an instruction stores its
# index in ``p`` before it does anything, and a store, ``input`` or
# ``ptwrite`` has its effect only after its last possible raise, so the
# chunk loop retires the instructions before ``p`` and runs ``p``'s
# closure, which fails as the per-instruction loop does.  Registers
# always hold 64-bit values, so width-64 operations need no operand
# masks.
#
# A run reads ``interp.memory``, ``interp.env`` and ``interp.tracer``
# when it runs, since its code is shared by every run in the process.
# Each load and store first tries the object its own access site hit
# last, kept in ``Memory.sites`` under a key the site draws when its run
# is generated: the object takes the access when the access lies inside
# it and it is live, which is exactly when ``check_access`` would return
# it, since objects never overlap, nothing lives in the null page, and
# ``base`` and ``size`` never change.  Anything else goes to
# ``check_access``, which raises the fault or returns the object to keep.
# One object per site, not one for every access: over the
# ``noisy-production`` request mix, a process-wide last object takes
# 41 % of the accesses and a per-site one 95 %.

#: binop -> result expression on width-``w`` operands ``a`` and ``b``;
#: ``m`` is the width's mask, ``s`` its sign bit and ``k`` ``w - 1``
_BINOP_EXPRS = {
    "add": "({a} + {b}) & {m}", "sub": "({a} - {b}) & {m}",
    "mul": "{a} * {b} & {m}", "and": "{a} & {b} & {m}",
    "or": "({a} | {b}) & {m}", "xor": "({a} ^ {b}) & {m}",
    "shl": "({a} << ({b} & {k})) & {m}", "lshr": "({a} & {m}) >> ({b} & {k})",
    "ashr": "(((({a} & {m}) ^ {s}) - {s}) >> ({b} & {k})) & {m}",
}

#: the entries that need no mask on 64-bit operands
_BINOP_EXPRS_64 = {**_BINOP_EXPRS, "and": "{a} & {b}", "or": "{a} | {b}",
                   "xor": "{a} ^ {b}", "lshr": "{a} >> ({b} & 63)"}

#: division -> (Python operator, result expression): the operands of a
#: signed one are ``x`` and ``y``, its magnitudes' quotient or remainder
#: is ``q`` and ``m`` is the width's mask
_DIVISIONS = {"udiv": ("//", None), "urem": ("%", None),
              "sdiv": ("//", "(q if (x < 0) == (y < 0) else -q) & {m}"),
              "srem": ("%", "(-q if x < 0 else q) & {m}")}

#: comparison -> Python operator; ``s``-prefixed ones compare signed
_CMP_OPS = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=", "ugt": ">",
            "uge": ">=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}

#: instruction types that always fuse; ``_fusible`` checks the rest
_ALWAYS_FUSIBLE = frozenset((ins.Const, ins.BinOp, ins.Cmp, ins.Gep,
                             ins.GlobalAddr, ins.Load, ins.Store, ins.Input,
                             ins.PtWrite))

#: access-site keys, unique in the process
_SITE_KEYS = itertools.count()

#: the object a site holds before its first access: it takes none
_NO_OBJECT = MemoryObject(0, -1, "none", "", bytearray(), live=False)

#: the globals of generated code, besides the factory's arguments
_NAMESPACE = {"__builtins__": {}, "KeyError": KeyError,
              "MemoryFault": MemoryFault, "len": len,
              "from_bytes": int.from_bytes, "to_bytes": int.to_bytes,
              "little": "little", "nowhere": _NO_OBJECT}

#: generated source -> its compiled code.  ``instrument`` rebuilds the
#: same blocks in every reconstruction round, and a rebuilt block's runs
#: have the source of its last build, since site keys are arguments.
_CODE: Dict[str, CodeType] = {}
#: sources the memo holds before it starts over
_CODE_LIMIT = 4096


def _fusible(instr: ins.Instr) -> bool:
    """Whether ``instr`` may join a fused run.  A ``trunc``/``sext``
    width outside 1..64 keeps its closure: its mask literal would grow
    with the width."""
    cls = instr.__class__
    if cls in _ALWAYS_FUSIBLE:
        return True
    if cls is ins.Trunc:
        return 1 <= instr.width <= 64
    if cls is ins.SExt:
        return 1 <= instr.from_width <= 64
    return False


def _straight_runs(instrs: List[ins.Instr]) -> List[Tuple[int, int]]:
    """``(start, end)`` of each fused run of ``instrs``: a maximal run of
    fusible instructions and the ``br``/``jmp`` after it, two or more."""
    runs = []
    start = 0
    for index, instr in enumerate(instrs):
        if _fusible(instr):
            continue
        end = index + 1 if instr.__class__ in (ins.Br, ins.Jmp) else index
        if end - start >= 2:
            runs.append((start, end))
        start = index + 1
    if len(instrs) - start >= 2:
        runs.append((start, len(instrs)))
    return runs


class _RunSource:
    """The body of one fused run's generated function, line by line.

    Values live in locals ``v<n>``; each register a run reads before
    writing it is loaded from ``regs`` once, after ``p`` is set to the
    reading instruction's index.  Everything bound from the instructions,
    and each access site's key, is an argument ``c<n>`` of the factory,
    so the text holds only integer literals and fixed names."""

    def __init__(self):
        self.args: List[object] = []  # the factory's arguments
        self.consts: Dict[object, str] = {}  # bound value -> ``c<n>``
        self.lines: List[str] = []
        self.values: Dict[str, str] = {}  # register -> local holding it
        self.marked = -1  # the index last stored in ``p``
        self.sites = False  # whether ``sites`` is bound yet

    def bind(self, value) -> str:
        """A new factory argument holding ``value``."""
        self.args.append(value)
        return f"c{len(self.args) - 1}"

    def const(self, value) -> str:
        """The factory argument holding ``value``, bound once."""
        name = self.consts.get(value)
        if name is None:
            name = self.consts[value] = self.bind(value)
        return name

    def mark(self, index: int) -> None:
        """Instruction ``index`` may fail: record it."""
        if self.marked != index:
            self.lines.append(f"p = {index}")
            self.marked = index

    def read(self, operand, index: int) -> str:
        """An operand's 64-bit value."""
        if not isinstance(operand, str):
            return str(mask(operand))
        name = self.values.get(operand)
        if name is None:
            self.mark(index)
            name = self.values[operand] = f"v{len(self.lines)}"
            self.lines.append(f"{name} = regs[{self.const(operand)}]")
        return name

    def unsigned(self, operand, index: int, width: int) -> str:
        """An operand's value truncated to ``width`` bits."""
        if not isinstance(operand, str):
            return str(mask(operand, width))
        value = self.read(operand, index)
        return value if width == 64 else f"({value} & {(1 << width) - 1})"

    def signed(self, operand, index: int, width: int) -> str:
        """An operand's value as a signed ``width``-bit integer."""
        if not isinstance(operand, str):
            return f"({to_signed(operand, width)})"
        sign = 1 << (width - 1)
        return f"(({self.unsigned(operand, index, width)} ^ {sign}) - {sign})"

    def write(self, dest: str, expr: str) -> None:
        name = self.values[dest] = f"v{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        self.lines.append(f"regs[{self.const(dest)}] = {name}")

    def access(self, addr: str, size: int) -> None:
        """Bind ``o`` to the object a ``size``-byte access at ``addr``
        hits and ``d`` to the access's offset in it, through a new
        access site (see *fused runs* above)."""
        if not self.sites:
            self.lines.append("sites = interp.memory.sites")
            self.sites = True
        site = self.bind(next(_SITE_KEYS))
        self.lines += [
            f"o = sites.get({site}, nowhere)",
            f"d = {addr} - o.base",
            f"if not (0 <= d <= o.size - {size} and o.live):",
            f"    o = sites[{site}] = interp.memory.check_access({addr}, "
            f"{size})",
            f"    d = {addr} - o.base"]

    def divide(self, instr: ins.BinOp, index: int) -> None:
        """A division or remainder, which returns ``p`` on a zero
        divisor."""
        op, result = _DIVISIONS[instr.op]
        width = instr.width
        side = self.signed if instr.op[0] == "s" else self.unsigned
        self.mark(index)
        lhs = side(instr.lhs, index, width)
        self.lines += [f"y = {side(instr.rhs, index, width)}",
                       "if not y:", "    return p"]
        if result is None:  # unsigned: the result fits the width
            self.write(instr.dest, f"{lhs} {op} y")
        else:
            self.lines += [
                f"x = {lhs}",
                f"q = (x if x >= 0 else -x) {op} (y if y >= 0 else -y)"]
            self.write(instr.dest, result.format(m=(1 << width) - 1))

    def test(self, instr: ins.Cmp, index: int) -> str:
        """A comparison as a Python boolean expression."""
        width, op = instr.width, instr.op
        side = self.signed if op[0] == "s" else self.unsigned
        lhs = side(instr.lhs, index, width)
        rhs = side(instr.rhs, index, width)
        return f"{lhs} {_CMP_OPS[op]} {rhs}"

    def branch(self, dest: Optional[str], test: str, if_true: str,
               if_false: str) -> List[str]:
        """The tail that records ``test`` as a TNT bit and jumps; a
        comparison's ``dest`` is written on each side."""
        true, false = self.const(if_true), self.const(if_false)
        sets = ([], []) if dest is None else (
            [f"regs[{self.const(dest)}] = 1"],
            [f"regs[{self.const(dest)}] = 0"])
        return ([f"if {test}:"]
                + ["    " + line for line in sets[0]
                   + ["bits.append(True)", f"return {true}"]]
                + sets[1] + ["bits.append(False)", f"return {false}"])


def _fused_run(instrs: Tuple[ins.Instr, ...]) -> Callable:
    """The generated function of the run ``instrs``.  Register names,
    labels, global and stream names come from ``.eir`` files, outside
    input, so they are never spliced into the source: they are arguments
    of the factory the source defines.  Each distinct source is compiled
    once per process."""
    src = _RunSource()
    last = instrs[-1]
    tail = ["return None"]
    for index, instr in enumerate(instrs):
        cls = instr.__class__
        if cls is ins.Cmp and last.__class__ is ins.Br \
                and index == len(instrs) - 2 and last.cond == instr.dest:
            # ``cmp`` then ``br`` on its result: branch on the test
            tail = src.branch(instr.dest, src.test(instr, index),
                              last.if_true, last.if_false)
            break
        if cls is ins.Const:
            src.write(instr.dest, str(mask(instr.value)))
        elif cls is ins.BinOp and instr.op in _DIVISIONS:
            src.divide(instr, index)
        elif cls is ins.BinOp:
            width = instr.width
            exprs = _BINOP_EXPRS_64 if width == 64 else _BINOP_EXPRS
            src.write(instr.dest, exprs[instr.op].format(
                a=src.read(instr.lhs, index), b=src.read(instr.rhs, index),
                m=(1 << width) - 1, s=1 << (width - 1), k=width - 1))
        elif cls is ins.Cmp:
            src.write(instr.dest, f"1 if {src.test(instr, index)} else 0")
        elif cls is ins.Trunc:
            src.write(instr.dest,
                      src.unsigned(instr.value, index, instr.width))
        elif cls is ins.SExt:
            value = src.signed(instr.value, index, instr.from_width)
            src.write(instr.dest, f"{value} & {MASK64}")
        elif cls is ins.Gep:
            base = src.read(instr.base, index)
            offset = src.read(instr.index, index)
            src.write(instr.dest,
                      f"({base} + {offset} * {mask(instr.scale)}) & {MASK64}")
        elif cls is ins.GlobalAddr:
            src.mark(index)
            src.write(instr.dest,
                      f"interp.memory.global_addrs[{src.const(instr.name)}]")
        elif cls is ins.Load:
            size = instr.size
            src.mark(index)
            src.access(src.read(instr.addr, index), size)
            src.write(instr.dest, "o.data[d]" if size == 1 else
                      f"from_bytes(o.data[d:d + {size}], little)")
        elif cls is ins.Store:
            size = instr.size
            src.mark(index)
            addr = src.read(instr.addr, index)
            value = src.unsigned(instr.value, index, 8 * size)
            src.access(addr, size)
            src.lines.append(
                f"o.data[d] = {value}" if size == 1 else
                f"o.data[d:d + {size}] = to_bytes({value}, {size}, little)")
        elif cls is ins.Input:
            stream = src.const(instr.stream)
            src.write(instr.dest, f"from_bytes(interp.env.read({stream}, "
                                  f"{instr.size}), little)")
        elif cls is ins.PtWrite:
            value = src.read(instr.value, index)
            src.lines += [
                "interp.ptwrite_count += 1",
                "interp.branch_count += len(bits)",
                f"interp.tracer.on_ptwrite({src.const(instr.tag)}, {value})"]
        elif cls is ins.Jmp:
            tail = [f"return {src.const(instr.label)}"]
        elif isinstance(instr.cond, str):  # Br
            tail = src.branch(None, f"{src.read(instr.cond, index)} != 0",
                              instr.if_true, instr.if_false)
        else:
            taken = mask(instr.cond) != 0
            tail = [f"bits.append({taken})", "return "
                    + src.const(instr.if_true if taken else instr.if_false)]
    body = src.lines + tail
    if src.marked >= 0:
        body = (["try:"] + ["    " + line for line in body]
                + ["except (KeyError, MemoryFault):", "    return p"])
    source = "\n".join(
        [f"def make({', '.join(f'c{i}' for i in range(len(src.args)))}):",
         "    def run(interp, regs, bits):"]
        + ["        " + line for line in body]
        + ["    return run"])
    code = _CODE.get(source)
    if code is None:
        if len(_CODE) >= _CODE_LIMIT:
            _CODE.clear()
        code = _CODE[source] = compile(source, "<fused run>", "exec")
    namespace = dict(_NAMESPACE)
    exec(code, namespace)
    return namespace["make"](*src.args)
