"""Shepherded symbolic execution (§3.2).

The engine replays a decoded PT trace over the IR with symbolic inputs:

* the scheduler is replaced by the recorded chunk order (§3.4),
* every conditional branch consumes one recorded TNT bit and contributes
  the branch condition (oriented by the bit) to the path constraint,
* every ``ptwrite`` consumes one recorded PTW value, asserts equality,
  and **concretizes** the register — the step that collapses constraint
  complexity after key-data-value selection,
* every symbolic memory access invokes the solver (bounded by a work
  budget); a timeout is a *stall* and yields a :class:`StallInfo` for
  key data value selection,
* at the end of the trace, the recorded failure is turned into a final
  constraint (e.g. the faulting address is out of bounds) and the full
  path constraint is handed to the solver for input generation.
"""

from __future__ import annotations

import logging
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from .. import telemetry
from ..errors import SolverTimeout, SymexError, TraceDivergence, UnsatError
from ..interp.failures import FailureInfo, FailureKind, MemoryFault
from ..ir import instructions as ins
from ..ir.module import Function, Module, ProgramPoint
from ..solver import terms as T
from ..solver.budget import DEFAULT_WORK_LIMIT, Budget, UnlimitedBudget
from ..solver.cache import SolverCache
from ..solver.solver import Solver
from ..solver.terms import Term
from ..trace.decoder import DecodedTrace
from ..trace.packets import GapEvent, PtwEvent, TntEvent
from .environment import SymbolicEnvironment
from .memory import SymMemory, SymObject
from .result import StallInfo, SymexResult, SymexStats

logger = logging.getLogger(__name__)


@dataclass
class SymFrame:
    func: Function
    block: str
    index: int
    regs: Dict[str, Term]
    stack_objs: List[SymObject] = field(default_factory=list)
    ret_reg: Optional[str] = None


@dataclass
class SymThread:
    tid: int
    frames: List[SymFrame]
    done: bool = False

    @property
    def frame(self) -> SymFrame:
        return self.frames[-1]

    def copy(self, memory: SymMemory) -> "SymThread":
        """An independent copy whose frames point into ``memory``."""
        return SymThread(self.tid, [
            SymFrame(f.func, f.block, f.index, dict(f.regs),
                     [memory.object_at(obj.base) for obj in f.stack_objs],
                     f.ret_reg)
            for f in self.frames], self.done)

    def call_stack(self) -> Tuple[str, ...]:
        return tuple(f.func.name for f in self.frames)

    def current_point(self) -> ProgramPoint:
        frame = self.frame
        return ProgramPoint(frame.func.name, frame.block, frame.index)


class _Stall(Exception):
    def __init__(self, info: StallInfo):
        self.info = info


@dataclass
class Checkpoint:
    """Engine state at a symbolic gap, just before its bit is chosen.

    Everything a run mutates is copied; terms are immutable and shared.
    A checkpoint is resumed at most once, so resuming adopts the copies.
    """

    #: the gap's index among the path's symbolic gaps
    gap: int
    #: length of the path's query log at the gap
    queries: int
    #: the chunk being replayed, the instructions of it done so far
    #: (the branch included), and its thread
    chunk: int
    steps: int
    tid: int
    #: instructions executed since chunk 0
    instrs: int
    memory: SymMemory
    threads: Dict[int, SymThread]
    next_tid: int
    sym_env: SymbolicEnvironment
    constraints: List[Term]
    exec_counts: Counter
    outputs: Dict[str, List[Term]]
    events: Deque
    concretized: List[Tuple[Term, int]]


class GapPath:
    """A gap search's current DFS path, shared by its attempts.

    ``queries`` logs every solver query the path's runs answered, as
    ``(instructions executed, exact-tier cache key)``.
    ``checkpoints[i]`` is the engine state at the path's ``i``-th
    symbolic gap when that gap was taken as True, else None.
    """

    __slots__ = ("queries", "checkpoints")

    def __init__(self):
        self.queries: List[Tuple[int, object]] = []
        self.checkpoints: List[Optional[Checkpoint]] = []

    def resume_point(self, gap: int,
                     cache: SolverCache) -> Optional[Checkpoint]:
        """The checkpoint a sibling that flips ``gap`` to False resumes from.

        Cuts the path back to that gap: later checkpoints and queries
        belong to the abandoned subtree.  Returns None, and empties the
        path so the sibling runs from chunk 0, when the gap has no
        checkpoint or when a prefix query has left the cache's exact
        tier (replaying the prefix would solve it again).
        """
        checkpoint = (self.checkpoints[gap] if gap < len(self.checkpoints)
                      else None)
        if checkpoint is not None:
            del self.checkpoints[gap:]
            del self.queries[checkpoint.queries:]
            if all(cache.holds_exact(key) for _, key in self.queries):
                return checkpoint
        self.queries.clear()
        self.checkpoints.clear()
        return None


class ShepherdedSymex:
    """One shepherded symbolic execution over one decoded trace."""

    def __init__(self, module: Module, trace: DecodedTrace,
                 failure: Optional[FailureInfo], *,
                 work_limit: int = DEFAULT_WORK_LIMIT,
                 no_timeout: bool = False,
                 check_feasibility: bool = True,
                 continue_on_stall: bool = False,
                 banned_concretizations=None,
                 gap_decisions=None,
                 solver_cache: Optional[SolverCache] = None):
        self.module = module
        self.trace = trace
        self.failure = failure
        self.work_limit = work_limit
        self.no_timeout = no_timeout
        self.check_feasibility = check_feasibility
        #: Fig. 5 mode: per-access solver timeouts do not abort the
        #: replay; the work is accounted and shepherding continues
        self.continue_on_stall = continue_on_stall
        #: {repr(term): {values}} — concretization picks a caller ruled
        #: out after they made the path unsat (retry protocol)
        self.banned_concretizations = dict(banned_concretizations or {})
        #: committed outcomes for GapEvents (lost TNT bits); beyond this
        #: prefix the engine defaults to 'taken' and records its choice
        self.gap_decisions = list(gap_decisions or [])
        self.gap_bits_used: List[bool] = []

        #: per-session solver-query cache; the reconstructor passes one
        #: shared across iterations so later iterations warm-start from
        #: the previous iteration's partial model
        self.solver_cache = (solver_cache if solver_cache is not None
                             else SolverCache())
        self.solver = Solver(work_limit, cache=self.solver_cache)
        self.sym_env = SymbolicEnvironment()
        self.memory = SymMemory(module)
        self.threads: Dict[int, SymThread] = {}
        self.constraints: List[Term] = []
        self.exec_counts: Counter = Counter()
        self.stats = SymexStats()
        self.outputs: Dict[str, List[Term]] = {}
        self._events: Deque = deque()
        self._chunk_index: int = -1
        #: (term, value) pairs pinned by solver concretization (malloc
        #: sizes, wild addresses); if the path later turns unsat, the
        #: wrong pick is the likely culprit — recording the term fixes
        #: it across occurrences (§3.3.4), banning the value fixes it
        #: within one analysis (Fig. 5 mode)
        self._concretized: List[Tuple[Term, int]] = []
        #: set by the gap search (:mod:`repro.symex.gaps`) only: the
        #: run logs its answered queries and checkpoints its True gaps
        #: into ``path``, and starts from ``resume`` (a checkpoint the
        #: path was cut back to) instead of chunk 0
        self.path: Optional[GapPath] = None
        self.resume: Optional[Checkpoint] = None
        #: (function name, block label) -> the block's program points
        self._points: Dict[Tuple[str, str], Tuple[ProgramPoint, ...]] = {}

    # ------------------------------------------------------------------
    # public API

    def run(self) -> SymexResult:
        """Shepherd the whole trace; solve for inputs at the end."""
        with telemetry.span("symex.run",
                            chunks=len(self.trace.chunks)) as sp:
            result = self._run()
        self.stats.wall_seconds = sp.seconds
        self._publish_stats(result)
        return result

    def _publish_stats(self, result: SymexResult) -> None:
        tel = telemetry.get()
        tel.count("symex.runs")
        tel.count(f"symex.{result.status}")
        tel.count("symex.instrs_executed", self.stats.instrs_executed)
        tel.count("symex.solver_calls", self.stats.solver_calls)
        tel.count("symex.solver_work", self.stats.solver_work)
        tel.histogram("symex.wall_seconds").record(self.stats.wall_seconds)
        logger.debug(
            "symex %s: %d instrs, %d solver calls, %d work, %.3fs wall",
            result.status, self.stats.instrs_executed,
            self.stats.solver_calls, self.stats.solver_work,
            self.stats.wall_seconds)
        if result.status == "diverged":
            logger.info("symex diverged at chunk %d: %s",
                        result.diverged_chunk, result.divergence_reason)
            tel.event("symex.divergence", chunk=result.diverged_chunk,
                      reason=result.divergence_reason)

    def _run(self) -> SymexResult:
        # A fresh term space per run (reusing the reconstruction's space
        # when one is active) replaces the old process-global cache
        # clear: concurrent engines in one process can no longer reset
        # each other's intern tables, and terms held across runs (stall
        # terms, report payloads) stay structurally valid.
        with T.term_scope(reuse_active=True):
            return self._run_in_scope()

    def _run_in_scope(self) -> SymexResult:
        try:
            if self.resume is None:
                self._init_main()
                self._replay_chunks()
            else:
                self._resume_run(self.resume)
            self._apply_failure_constraints()
            model = self._final_solve()
        except _Stall as stall:
            return SymexResult(status="stalled",
                               constraints=list(self.constraints),
                               stall=stall.info, stats=self.stats,
                               exec_counts=self.exec_counts,
                               gap_bits=list(self.gap_bits_used))
        except TraceDivergence as div:
            if self._concretized:
                # the divergence is (most likely) a bad concretization
                # pick; report a stall naming the concretized terms so
                # selection records them for the next occurrence (or so
                # a Fig.-5-style driver bans the value and retries)
                budget = Budget(self.work_limit, "concretization conflict")
                return SymexResult(status="stalled",
                                   constraints=list(self.constraints),
                                   stall=self._make_stall(
                                       [t for t, _v in self._concretized],
                                       budget),
                                   stats=self.stats,
                                   exec_counts=self.exec_counts,
                                   gap_bits=list(self.gap_bits_used))
            return SymexResult(status="diverged", stats=self.stats,
                               constraints=list(self.constraints),
                               exec_counts=self.exec_counts,
                               divergence_reason=str(div),
                               diverged_chunk=self._chunk_index,
                               gap_bits=list(self.gap_bits_used))
        return SymexResult(status="completed",
                           constraints=list(self.constraints), model=model,
                           stats=self.stats, exec_counts=self.exec_counts,
                           gap_bits=list(self.gap_bits_used))

    # ------------------------------------------------------------------
    # trace replay

    def _init_main(self) -> None:
        main = self.module.function("main")
        if main.params:
            raise SymexError("shepherded main must take no arguments")
        self.threads[0] = SymThread(
            0, [SymFrame(main, next(iter(main.blocks)), 0, {})])
        self._next_tid = 1

    def _replay_chunks(self, start: int = 0, steps: int = 0) -> None:
        """Replay chunks ``start`` onwards; ``steps`` > 0 continues chunk
        ``start`` after its first ``steps`` instructions (a resumed run,
        whose remaining events are already restored)."""
        chunks = self.trace.chunks
        for index in range(start, len(chunks)):
            chunk = chunks[index]
            thread = self.threads.get(chunk.tid)
            if not steps:
                self._chunk_index = index
                if thread is None:
                    raise TraceDivergence(
                        f"trace chunk for unknown thread {chunk.tid}")
                self._events = deque(chunk.events)
            self._chunk_start = self.stats.instrs_executed - steps
            for _ in range(chunk.n_instrs - steps):
                if thread.done:
                    raise TraceDivergence(
                        f"chunk {index} runs past thread {chunk.tid} end")
                self._step(thread)
            steps = 0
            if self._events:
                raise TraceDivergence(
                    f"{len(self._events)} unconsumed trace events in chunk")

    # ------------------------------------------------------------------
    # checkpoints (gap search only)

    def _checkpoint(self) -> Checkpoint:
        memory = self.memory.copy()
        return Checkpoint(
            gap=len(self.gap_bits_used), queries=len(self.path.queries),
            chunk=self._chunk_index,
            steps=self.stats.instrs_executed - self._chunk_start,
            tid=self._current_thread.tid,
            instrs=self.stats.instrs_executed, memory=memory,
            threads={tid: thread.copy(memory)
                     for tid, thread in self.threads.items()},
            next_tid=self._next_tid, sym_env=self.sym_env.copy(),
            constraints=list(self.constraints),
            exec_counts=self.exec_counts.copy(),
            outputs={stream: list(values)
                     for stream, values in self.outputs.items()},
            events=self._events.copy(),
            concretized=list(self._concretized))

    def _resume_run(self, cp: Checkpoint) -> None:
        """Continue from ``cp`` as if the run had replayed up to it.

        Replaying the prefix would answer every query in ``path.queries``
        from the exact cache tier (the gap search checked that they are
        all still there), so the prefix's only effects outside the
        engine are those hits' bookkeeping, applied here in order.  The
        prefix's ``_set_dest`` provenance writes would be no-ops: its
        terms are interned in this search's space and already carry
        provenance.
        """
        queries = self.path.queries
        self.solver_cache.replay_hits([key for _, key in queries])
        self.stats.add_cached_calls(instrs for instrs, _ in queries)
        self.memory = cp.memory
        self.threads = cp.threads
        self._next_tid = cp.next_tid
        self.sym_env = cp.sym_env
        self.constraints = cp.constraints
        self.exec_counts = cp.exec_counts
        self.outputs = cp.outputs
        self._events = cp.events
        self._chunk_index = cp.chunk
        self._concretized = cp.concretized
        self.stats.instrs_executed = cp.instrs
        self.gap_bits_used = self.gap_decisions[:cp.gap]
        # finish the branch the checkpoint interrupted, with this run's
        # decision for its gap
        thread = self._current_thread = self.threads[cp.tid]
        frame = thread.frame
        instr = frame.func.blocks[frame.block].instrs[frame.index]
        point = self._current_point = self._block_points(
            frame.func, frame.block)[frame.index]
        cond = self._value(frame, instr.cond)
        self._take_branch(frame, instr, point, cond,
                          self._gap_outcome(cond))
        self._replay_chunks(cp.chunk, cp.steps)

    # ------------------------------------------------------------------

    def _step(self, thread: SymThread) -> None:
        frame = thread.frame
        func = frame.func
        instr = func.blocks[frame.block].instrs[frame.index]
        points = self._points.get((func.name, frame.block))
        if points is None:
            points = self._block_points(func, frame.block)
        point = points[frame.index]
        self.exec_counts[point] += 1
        self.stats.instrs_executed += 1
        self._current_point = point
        self._current_thread = thread
        self._DISPATCH[type(instr)](self, thread, frame, instr, point)

    def _block_points(self, func: Function,
                      label: str) -> Tuple[ProgramPoint, ...]:
        """The program points of a block, built once per run: a point is
        a value of its fields, so one instance serves every step."""
        key = (func.name, label)
        points = self._points.get(key)
        if points is None:
            points = self._points[key] = tuple(
                ProgramPoint(func.name, label, index)
                for index in range(len(func.blocks[label].instrs)))
        return points

    # ------------------------------------------------------------------
    # solver plumbing

    def _new_budget(self, context: str) -> Budget:
        if self.no_timeout:
            return UnlimitedBudget(context)
        return Budget(self.work_limit, context)

    def _charge_stats(self, budget: Budget) -> None:
        self.stats.solver_calls += 1
        self.stats.solver_work += budget.spent
        self.stats.add_progress(self.stats.instrs_executed,
                                self.stats.solver_work)

    def _check_feasible(self, stall_terms: List[Term], context: str) -> None:
        """The per-access solver call of §3.2; may stall."""
        if not self.check_feasibility:
            return
        budget = self._new_budget(context)
        try:
            feasible = self.solver.is_feasible(self.constraints, budget)
        except SolverTimeout:
            self._charge_stats(budget)
            if self.continue_on_stall:
                return
            raise _Stall(self._make_stall(stall_terms, budget)) from None
        self._charge_stats(budget)
        if self.path is not None:
            self.path.queries.append((self.stats.instrs_executed,
                                      SolverCache.key(self.constraints)))
        if not feasible:
            raise TraceDivergence(f"infeasible path constraint at {context}")

    def _make_stall(self, stall_terms: List[Term],
                    budget: Budget) -> StallInfo:
        chains = [obj.chain for obj in self.memory.objects_with_chains()]
        conflict = None
        if self._concretized:
            term, value = self._concretized[-1]
            conflict = (repr(term), value)
        return StallInfo(constraints=list(self.constraints),
                         stall_terms=list(stall_terms),
                         chains=chains,
                         exec_counts=Counter(self.exec_counts),
                         work_spent=budget.spent,
                         point=self._current_point,
                         concretization_conflict=conflict)

    def _final_solve(self):
        budget = self._new_budget("final input generation")
        try:
            model = self.solver.solve(self.constraints, budget)
        except SolverTimeout:
            self._charge_stats(budget)
            raise _Stall(self._make_stall([], budget)) from None
        except UnsatError as exc:
            self._charge_stats(budget)
            raise TraceDivergence(f"final constraints unsat: {exc}") from None
        self._charge_stats(budget)
        return model

    # ------------------------------------------------------------------
    # failure constraints

    def _apply_failure_constraints(self) -> None:
        if self.failure is None:
            return
        thread = self.threads.get(self.failure.tid)
        if thread is None or thread.done:
            raise TraceDivergence("failing thread not live at trace end")
        point = thread.current_point()
        if point != self.failure.point:
            raise TraceDivergence(
                f"replay ends at {point}, failure was at {self.failure.point}")
        if thread.call_stack() != self.failure.call_stack:
            raise TraceDivergence("call stack mismatch at failure point")
        frame = thread.frame
        instr = frame.func.blocks[frame.block].instrs[frame.index]
        kind = self.failure.kind

        if kind == FailureKind.ABORT:
            return
        if kind == FailureKind.ASSERT:
            cond = self._value(frame, instr.cond)
            self._add_constraint(T.cmp("eq", cond, T.const(0), 64))
            return
        if kind == FailureKind.DIV_BY_ZERO:
            rhs = self._value(frame, instr.rhs)
            self._add_constraint(T.cmp("eq", rhs, T.const(0), instr.width))
            return
        if kind in (FailureKind.STACK_OVERFLOW, FailureKind.HANG):
            return
        if kind in (FailureKind.USE_AFTER_FREE, FailureKind.DOUBLE_FREE):
            # liveness is concrete in replay; reaching the point suffices,
            # but sanity-check the object really is dead.
            addr = self._value(frame, instr.addr)
            if addr.is_const:
                obj = self.memory.find_object(addr.value)
                if obj is not None and obj.live and \
                        kind == FailureKind.USE_AFTER_FREE:
                    raise TraceDivergence("object live at use-after-free")
            return
        # memory-safety faults with possibly-symbolic addresses
        addr_operand = getattr(instr, "addr", None)
        if addr_operand is None:
            raise TraceDivergence(
                f"failure kind {kind} at non-memory instruction")
        addr = self._value(frame, addr_operand)
        size = getattr(instr, "size", 1)
        if kind == FailureKind.NULL_DEREF:
            if addr.is_const:
                if addr.value >= 0x1000:
                    raise TraceDivergence("address not null at null-deref")
            else:
                self._add_constraint(
                    T.cmp("ult", addr, T.const(0x1000), 64))
            return
        if kind == FailureKind.OUT_OF_BOUNDS:
            if addr.is_const:
                obj = self.memory.find_object(addr.value)
                if obj is not None and addr.value + size <= obj.end:
                    raise TraceDivergence("in-bounds at out-of-bounds fault")
                return
            obj, offset = self._decompose_address(addr)
            if obj is None:
                return
            self._add_constraint(
                T.cmp("ugt", offset, T.const(obj.size - size), 64))
            return
        raise TraceDivergence(f"unhandled failure kind {kind}")

    # ------------------------------------------------------------------
    # helpers

    def _value(self, frame: SymFrame, operand) -> Term:
        if isinstance(operand, str):
            try:
                return frame.regs[operand]
            except KeyError:
                raise SymexError(
                    f"read of unset register {operand} in {frame.func.name}"
                ) from None
        return T.const(operand)

    def _add_constraint(self, term: Term) -> None:
        term = T.bool_term(term)
        if term.is_const:
            if term.value == 0:
                raise TraceDivergence("constraint trivially false")
            return
        self.constraints.append(term)

    def _set_dest(self, frame: SymFrame, point: ProgramPoint, dest: str,
                  term: Term, size_bytes: int) -> None:
        if not term.is_const and term.prov is None:
            term.prov = (point, dest, size_bytes)
        frame.regs[dest] = term

    def _advance(self, frame: SymFrame) -> None:
        frame.index += 1

    def _next_event(self, want, point: ProgramPoint):
        if not self._events:
            raise TraceDivergence(f"trace exhausted at {point}")
        event = self._events.popleft()
        if not isinstance(event, want):
            names = (want.__name__ if isinstance(want, type)
                     else "/".join(w.__name__ for w in want))
            raise TraceDivergence(
                f"expected {names} at {point}, got {event!r}")
        return event

    # ------------------------------------------------------------------
    # address handling

    def _concretize(self, term: Term, context: str) -> int:
        """Pin a symbolic term to one feasible value (KLEE-style)."""
        budget = self._new_budget(context)
        banned = self.banned_concretizations.get(repr(term), ())
        extra = [T.cmp("ne", term, T.const(v), 64) for v in banned]
        constraints = list(self.constraints) + extra
        try:
            values = self.solver.feasible_values(
                term, constraints, limit=1, budget=budget)
        except SolverTimeout:
            self._charge_stats(budget)
            raise _Stall(self._make_stall([term], budget)) from None
        self._charge_stats(budget)
        if self.path is not None:
            key = SolverCache.key(constraints)
            self.path.queries.append(
                (self.stats.instrs_executed,
                 SolverCache.values_key(term, key, 1)))
        if not values:
            raise TraceDivergence(f"no feasible value for {context}")
        self._concretized.append((term, values[0]))
        self._add_constraint(T.cmp("eq", term, T.const(values[0]), 64))
        return values[0]

    def _decompose_address(self, addr: Term):
        """Split a symbolic address into (object, offset term).

        Canonicalization keeps ``base + symbolic`` in the shape
        ``add(const, X)``; if the pattern fails, concretize via the solver
        (KLEE-style address concretization) and pin it with a constraint.
        """
        if addr.is_const:
            obj = self.memory.find_object(addr.value)
            if obj is None:
                return None, T.const(0)
            return obj, T.const(addr.value - obj.base)
        if addr.op == "add" and addr.args[0].is_const and addr.args[2] == 64:
            base_const = addr.args[0].value
            obj = self.memory.find_object(base_const)
            if obj is not None:
                offset = T.binop("add", T.const(base_const - obj.base),
                                 addr.args[1], 64)
                return obj, offset
        # fallback: ask the solver for a concrete address
        concrete = self._concretize(addr, "address concretization")
        obj = self.memory.find_object(concrete)
        if obj is None:
            return None, T.const(0)
        return obj, T.const(concrete - obj.base)

    def _access(self, point: ProgramPoint, addr: Term, size: int,
                is_store: bool):
        """Resolve one retired memory access; returns (object, offset_term).

        Retired accesses (the failing instruction never retires) must stay
        in bounds of a live object; symbolic offsets add an in-bounds
        constraint and trigger the per-access solver call.
        """
        obj, offset = self._decompose_address(addr)
        if obj is None or not obj.live:
            raise TraceDivergence(
                f"access to {'dead' if obj else 'unmapped'} memory at {point}")
        if offset.is_const:
            if offset.value + size > obj.size:
                raise TraceDivergence(f"out-of-bounds replay at {point}")
            return obj, offset
        in_bounds = T.cmp("ule", offset, T.const(obj.size - size), 64)
        self._add_constraint(in_bounds)
        self._check_feasible([in_bounds, offset], f"bounds check at {point}")
        return obj, offset

    # ------------------------------------------------------------------
    # instruction handlers

    def _exec_const(self, thread, frame, instr, point):
        frame.regs[instr.dest] = T.const(instr.value)
        self._advance(frame)

    def _exec_binop(self, thread, frame, instr, point):
        lhs = self._value(frame, instr.lhs)
        rhs = self._value(frame, instr.rhs)
        if instr.op in ("udiv", "sdiv", "urem", "srem"):
            if rhs.is_const:
                if (rhs.value & ((1 << instr.width) - 1)) == 0:
                    raise TraceDivergence(
                        f"division by zero replayed at {point}")
            else:
                self._add_constraint(
                    T.cmp("ne", rhs, T.const(0), instr.width))
        term = T.binop(instr.op, lhs, rhs, instr.width)
        self._set_dest(frame, point, instr.dest, term, instr.width // 8 or 1)
        self._advance(frame)

    def _exec_cmp(self, thread, frame, instr, point):
        lhs = self._value(frame, instr.lhs)
        rhs = self._value(frame, instr.rhs)
        term = T.cmp(instr.op, lhs, rhs, instr.width)
        self._set_dest(frame, point, instr.dest, term, 1)
        self._advance(frame)

    def _exec_select(self, thread, frame, instr, point):
        cond = T.bool_term(self._value(frame, instr.cond))
        term = T.ite(cond, self._value(frame, instr.if_true),
                     self._value(frame, instr.if_false))
        self._set_dest(frame, point, instr.dest, term, 8)
        self._advance(frame)

    def _exec_trunc(self, thread, frame, instr, point):
        term = T.trunc(self._value(frame, instr.value), instr.width)
        self._set_dest(frame, point, instr.dest, term, instr.width // 8 or 1)
        self._advance(frame)

    def _exec_sext(self, thread, frame, instr, point):
        term = T.sext(self._value(frame, instr.value), instr.from_width)
        self._set_dest(frame, point, instr.dest, term, 8)
        self._advance(frame)

    def _exec_global(self, thread, frame, instr, point):
        frame.regs[instr.dest] = T.const(self.memory.global_addrs[instr.name])
        self._advance(frame)

    def _exec_alloca(self, thread, frame, instr, point):
        obj = self.memory.alloc_stack(
            f"{frame.func.name}.{instr.name}", instr.size)
        frame.stack_objs.append(obj)
        frame.regs[instr.dest] = T.const(obj.base)
        self._advance(frame)

    def _exec_malloc(self, thread, frame, instr, point):
        size = self._value(frame, instr.size)
        if not size.is_const:
            size = T.const(self._concretize(
                size, "allocation size concretization"))
        obj = self.memory.alloc_heap(size.value)
        frame.regs[instr.dest] = T.const(obj.base)
        self._advance(frame)

    def _exec_free(self, thread, frame, instr, point):
        addr = self._value(frame, instr.addr)
        if not addr.is_const:
            obj, _offset = self._decompose_address(addr)
            if obj is None:
                raise TraceDivergence(f"free of unmapped address at {point}")
            addr = T.const(obj.base)
        try:
            self.memory.free_heap(addr.value)
        except MemoryFault as exc:
            raise TraceDivergence(f"free diverged at {point}: {exc}") from None
        self._advance(frame)

    def _exec_gep(self, thread, frame, instr, point):
        base = self._value(frame, instr.base)
        index = self._value(frame, instr.index)
        scaled = T.binop("mul", index, T.const(instr.scale), 64)
        term = T.binop("add", base, scaled, 64)
        self._set_dest(frame, point, instr.dest, term, 8)
        self._advance(frame)

    def _exec_load(self, thread, frame, instr, point):
        addr = self._value(frame, instr.addr)
        obj, offset = self._access(point, addr, instr.size, is_store=False)
        if obj is None:
            # failing access: no value materializes (trap)
            frame.regs[instr.dest] = T.const(0)
            self._advance(frame)
            return
        if offset.is_const:
            base_off = offset.value
            parts = [obj.read_byte(base_off + i) for i in range(instr.size)]
        else:
            parts = [obj.read_sym(T.binop("add", offset, T.const(i), 64))
                     for i in range(instr.size)]
        term = T.concat(parts)
        self._set_dest(frame, point, instr.dest, term, instr.size)
        self._advance(frame)

    def _exec_store(self, thread, frame, instr, point):
        addr = self._value(frame, instr.addr)
        value = self._value(frame, instr.value)
        obj, offset = self._access(point, addr, instr.size, is_store=True)
        if obj is None:
            self._advance(frame)
            return
        if offset.is_const:
            for i in range(instr.size):
                obj.write_byte(offset.value + i, T.extract(value, i))
        else:
            for i in range(instr.size):
                obj.write_sym(T.binop("add", offset, T.const(i), 64),
                              T.extract(value, i))
        self._advance(frame)

    def _exec_jmp(self, thread, frame, instr, point):
        frame.block = instr.label
        frame.index = 0

    def _exec_br(self, thread, frame, instr, point):
        event = self._next_event((TntEvent, GapEvent), point)
        cond = self._value(frame, instr.cond)
        if isinstance(event, GapEvent):
            taken = self._gap_outcome(cond)
        else:
            taken = event.taken
        self._take_branch(frame, instr, point, cond, taken)

    def _take_branch(self, frame, instr, point, cond, taken):
        if cond.is_const:
            if bool(cond.value) != taken:
                raise TraceDivergence(
                    f"concrete branch disagrees with trace at {point}")
        else:
            cond_bool = T.bool_term(cond)
            self._add_constraint(cond_bool if taken
                                 else T.not_(cond_bool))
        frame.block = instr.if_true if taken else instr.if_false
        frame.index = 0

    def _gap_outcome(self, cond: Term) -> bool:
        """Outcome for a branch whose TNT bit was lost.

        A concrete condition decides itself (free recovery); a symbolic
        one takes the committed decision for this gap index, defaulting
        to 'taken' — the gap-recovery driver flips decisions on
        divergence (see :mod:`repro.symex.gaps`).
        """
        if cond.is_const:
            # concrete conditions recover the lost bit for free and do
            # not consume a decision slot
            return bool(cond.value)
        index = len(self.gap_bits_used)
        taken = (self.gap_decisions[index]
                 if index < len(self.gap_decisions) else True)
        if self.path is not None:
            # a sibling flipping this gap resumes here
            self.path.checkpoints.append(
                self._checkpoint() if taken else None)
        self.gap_bits_used.append(taken)
        return taken

    def _exec_call(self, thread, frame, instr, point):
        callee = self.module.function(instr.func)
        regs = {p: self._value(frame, a)
                for p, a in zip(callee.params, instr.args)}
        self._advance(frame)
        thread.frames.append(SymFrame(callee, next(iter(callee.blocks)), 0,
                                      regs, ret_reg=instr.dest))

    def _exec_ret(self, thread, frame, instr, point):
        value = (T.const(0) if instr.value is None
                 else self._value(frame, instr.value))
        for obj in frame.stack_objs:
            obj.live = False
        thread.frames.pop()
        if not thread.frames:
            thread.done = True
            return
        if frame.ret_reg is not None:
            thread.frame.regs[frame.ret_reg] = value

    def _exec_input(self, thread, frame, instr, point):
        term = self.sym_env.read(instr.stream, instr.size)
        # provenance on each byte too: recording the input register once
        # determines all of its bytes
        prov = (point, instr.dest, instr.size)
        if term.op == "concat":
            for part in term.args:
                if part.prov is None:
                    part.prov = prov
        self._set_dest(frame, point, instr.dest, term, instr.size)
        self._advance(frame)

    def _exec_output(self, thread, frame, instr, point):
        self.outputs.setdefault(instr.stream, []).append(
            self._value(frame, instr.value))
        self._advance(frame)

    def _exec_assert(self, thread, frame, instr, point):
        # a retired assert passed in production
        cond = self._value(frame, instr.cond)
        if cond.is_const:
            if cond.value == 0:
                raise TraceDivergence(f"assert trivially fails at {point}")
        else:
            self._add_constraint(T.cmp("ne", cond, T.const(0), 64))
        self._advance(frame)

    def _exec_abort(self, thread, frame, instr, point):
        # aborts never retire; reaching here means the trace kept going
        raise TraceDivergence(f"abort executed mid-trace at {point}")

    def _exec_ptwrite(self, thread, frame, instr, point):
        event = self._next_event(PtwEvent, point)
        if event.tag != instr.tag:
            raise TraceDivergence(
                f"PTW tag mismatch at {point}: trace {event.tag}, "
                f"program {instr.tag}")
        value = self._value(frame, instr.value)
        if value.is_const:
            if value.value != event.value:
                raise TraceDivergence(
                    f"PTW value mismatch at {point}")
        else:
            self._add_constraint(T.cmp("eq", value, T.const(event.value), 64))
            if isinstance(instr.value, str):
                # concretize: this is what simplifies later constraints
                frame.regs[instr.value] = T.const(event.value)
        self._advance(frame)

    def _exec_spawn(self, thread, frame, instr, point):
        callee = self.module.function(instr.func)
        regs = {p: self._value(frame, a)
                for p, a in zip(callee.params, instr.args)}
        tid = self._next_tid
        self._next_tid += 1
        self.threads[tid] = SymThread(
            tid, [SymFrame(callee, next(iter(callee.blocks)), 0, regs)])
        frame.regs[instr.dest] = T.const(tid)
        self._advance(frame)

    def _exec_nop(self, thread, frame, instr, point):
        self._advance(frame)

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
        ins.Join: _exec_nop,
        ins.Lock: _exec_nop,
        ins.Unlock: _exec_nop,
        ins.Nop: _exec_nop,
    }
