"""The compiled interpreter against the per-instruction reference loop.

Compiling blocks into closures, and straight-line runs into generated
functions, may change wall time only.  Every test here runs one program
twice, once with :class:`Interpreter` and once with
:class:`ReferenceInterpreter` (the stepping code it replaced), and
requires the same run result and failure, environment events, exact
tracer call sequence, ``on_step`` sequence, final thread states and
memory, or the same exception type and message.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import InterpError
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter, _fused_run, _straight_runs
from repro.ir.builder import ModuleBuilder
from repro.ir.module import ProgramPoint
from repro.workloads import get_workload, workload_names
from tests.interp.reference_interpreter import ReferenceInterpreter
from tests.test_properties import arithmetic_programs

_SETTINGS = dict(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class RecordingTracer:
    """Records every tracer-protocol call, in order.  The compiled
    interpreter hands over branch outcomes as a batch in ``tnt_bits``;
    each batch is expanded back into one ``("branch", taken)`` call per
    bit, which is what the reference interpreter makes."""

    def __init__(self):
        self.calls = []
        self.tnt_bits = []

    def _expand(self):
        self.calls.extend(("branch", taken) for taken in self.tnt_bits)
        self.tnt_bits.clear()

    def begin_chunk(self, tid, timestamp):
        self.calls.append(("begin", tid, timestamp))

    def on_branch(self, taken):
        self.calls.append(("branch", taken))

    def on_ptwrite(self, tag, value):
        self._expand()
        self.calls.append(("ptwrite", tag, value))

    def end_chunk(self, n_instrs):
        self._expand()
        self.calls.append(("end", n_instrs))


def _frames(thread):
    return [(f.func.name, f.block, f.index, sorted(f.regs.items()),
             [obj.base for obj in f.stack_objs], f.ret_reg)
            for f in thread.frames]


def observe(cls, module, env, *, hook=False, **kwargs):
    """Everything a run of ``cls`` shows the outside world."""
    tracer = RecordingTracer()
    steps = []

    def on_step(thread, point, instr):
        frame = thread.frame
        steps.append((thread.tid, point, instr, frame.block, frame.index,
                      _frames(thread) if len(steps) < 5_000 else None))

    interp = cls(module, env, tracer=tracer,
                 on_step=on_step if hook else None, **kwargs)
    try:
        result = interp.run()
    except Exception as exc:  # noqa: BLE001 — the exception is compared
        outcome = ("raised", type(exc), str(exc))
    else:
        outcome = (result.failure, result.return_value, result.instr_count,
                   result.outputs, result.chunk_count, result.ptwrite_count,
                   result.branch_count, result.thread_count)
    return {
        "outcome": outcome,
        "events": [(e.stream, e.offset, e.data) for e in env.events],
        "tracer": tracer.calls,
        "steps": steps,
        "threads": [(t.tid, t.status, t.wait_target, t.return_value,
                     _frames(t)) for t in interp.threads],
        "mutexes": interp.mutexes,
        "memory": interp.memory.snapshot(),
    }


def assert_same(module, make_env, *, hook=False, **kwargs):
    """Run both interpreters on fresh copies of one environment."""
    compiled = observe(Interpreter, module, make_env(), hook=hook, **kwargs)
    reference = observe(ReferenceInterpreter, module, make_env(), hook=hook,
                        **kwargs)
    assert compiled == reference
    return compiled


# ----------------------------------------------------------------------
# the workloads


@pytest.mark.parametrize("name", workload_names())
def test_workload_inputs_identical(name):
    workload = get_workload(name)
    module = workload.module()
    failing = [workload.failing_env(i) for i in range(1, 5)]
    for env in failing:
        assert assert_same(module, env.clone)["outcome"][0] is not None
    for i in range(3):
        assert_same(module, workload.benign_env(i).clone)
    # the hooked path is its own compiled form; the failing runs are short
    for env in failing:
        assert assert_same(module, env.clone, hook=True)["steps"]


@pytest.mark.parametrize("callee_only", [False, True],
                         ids=["every-7th", "callee-only"])
@pytest.mark.parametrize("name", workload_names())
def test_instrumented_workload_identical(name, callee_only):
    """ptwrite tags and values reach the tracer in the same order.  The
    instrumented module shares its untouched blocks with the workload's
    module, which has already run, so their code is reused; recording
    only outside ``main`` leaves the calling blocks shared."""
    from repro.core.instrument import instrument
    from repro.core.selection import RecordingItem

    workload = get_workload(name)
    module = workload.module()
    env = workload.failing_env(1)
    Interpreter(module, env.clone()).run()
    items = [RecordingItem(point, instr.dest_register(), 8)
             for point, instr in module.points()
             if instr.dest_register() is not None
             and not (callee_only and point.func == "main")]
    items = items[::5] if callee_only else items[::7]
    deployed = instrument(module, items).module
    observed = assert_same(deployed, env.clone)
    assert any(call[0] == "ptwrite" for call in observed["tracer"]) \
        == bool(items)


# ----------------------------------------------------------------------
# generated programs


@settings(**_SETTINGS)
@given(arithmetic_programs(), st.binary(min_size=3, max_size=3),
       st.booleans())
def test_arithmetic_programs_identical(module, data, hook):
    assert_same(module, lambda: Environment({"stdin": data}), hook=hook)


@st.composite
def threaded_programs(draw):
    """Workers that update a shared counter under a mutex, call a helper,
    record values and may fail; main spawns them, joins them and checks
    the total."""
    b = ModuleBuilder("threads")
    b.global_("G", 8)
    helper = b.function("bump", ["v", "k"])
    helper.block("entry")
    helper.ret(helper.binop(draw(st.sampled_from(["add", "xor", "mul"])),
                            "%v", "%k", width=draw(st.sampled_from([8, 64]))))
    workers = draw(st.integers(1, 3))
    for w in range(workers):
        f = b.function(f"worker{w}", ["k"])
        f.block("entry")
        g = f.global_addr("G")
        f.const(0, dest="%i")
        f.jmp("loop")
        f.block("loop")
        done = f.cmp("uge", "%i", draw(st.integers(0, 6)))
        f.br(done, "out", "body")
        f.block("body")
        locked = draw(st.booleans())
        if locked:
            f.lock(1)
        v = f.load(g, 8)
        v = f.call("bump", [v, "%k"])
        if draw(st.booleans()):
            f.ptwrite(v, tag=w)
        f.store(g, v, 8)
        if locked:
            f.unlock(1)
        f.output("log", "%k", 1)
        f.add("%i", 1, dest="%i")
        f.jmp("loop")
        f.block("out")
        f.ret("%i")
    m = b.function("main", [])
    m.block("entry")
    seed = m.input("stdin", 1)
    tids = [m.spawn(f"worker{w}", [m.add(seed, w + 1, width=8)])
            for w in range(workers)]
    if draw(st.booleans()):  # main contends for the mutex too
        m.lock(1)
        m.output("log", 0, 1)
        m.unlock(1)
    for tid in tids:
        m.join(tid)
    total = m.load(m.global_addr("G"), 8)
    m.output("stdout", total, 8)
    m.assert_(m.cmp("ne", total, draw(st.integers(0, 255)), width=8),
              "total hit the bad value")
    m.ret(0)
    return b.build()


@settings(**_SETTINGS)
@given(threaded_programs(), st.binary(min_size=1, max_size=1),
       st.sampled_from([1, 3, 50]), st.booleans())
def test_threaded_programs_identical(module, data, quantum, hook):
    assert_same(module,
                lambda: Environment({"stdin": data}, quantum=quantum),
                hook=hook)


# ----------------------------------------------------------------------
# the step budget


@settings(**_SETTINGS)
@given(threaded_programs(), st.sampled_from([1, 3, 50]),
       st.integers(0, 400), st.booleans())
def test_max_steps_cut_identical(module, quantum, max_steps,
                                 hang_as_failure):
    assert_same(module, lambda: Environment({"stdin": b"\x07"},
                                            quantum=quantum),
                max_steps=max_steps, hang_as_failure=hang_as_failure)


@pytest.mark.parametrize("hang_as_failure", [False, True])
def test_max_steps_cut_on_workload_identical(hang_as_failure):
    workload = get_workload("pbzip2-uaf")  # threads, quantum 10
    env = workload.failing_env(1)
    full = Interpreter(workload.module(), env.clone()).run().instr_count
    rng = random.Random(14)
    cuts = sorted(rng.sample(range(full), 8)) + [0, full - 1, full]
    for max_steps in cuts:
        assert_same(workload.module(), env.clone, max_steps=max_steps,
                    hang_as_failure=hang_as_failure)


# ----------------------------------------------------------------------
# failures and error paths


def _unset_program(use):
    """``%x`` and ``%z`` are written only when the input byte is 1;
    ``use`` reads them (and ``%y``, which is always set) on the other path
    too."""
    b = ModuleBuilder("unset")
    b.global_("G", 16)
    helper = b.function("id", ["a"])
    helper.block("entry")
    helper.ret("%a")
    f = b.function("main", [])
    f.block("entry")
    c = f.input("stdin", 1, dest="%c")
    f.global_addr("G", dest="%y")
    f.br(f.cmp("eq", c, 1), "def", "use")
    f.block("def")
    f.global_addr("G", dest="%x")
    f.const(8, dest="%z")
    f.jmp("use")
    f.block("use")
    use(f)
    f.ret(0)
    return b.build()


UNSET_USES = {
    "binop-lhs": lambda f: f.add("%x", "%y"),
    "binop-rhs": lambda f: f.add("%y", "%x"),
    "binop-both": lambda f: f.add("%x", "%z"),
    "cmp-both": lambda f: f.cmp("eq", "%x", "%z"),
    "store-both": lambda f: f.store("%x", "%z", 8),
    "gep-both": lambda f: f.gep("%x", "%z"),
    "binop-imm": lambda f: f.add("%x", 1),
    "imm-binop": lambda f: f.sub(1, "%x"),
    "udiv": lambda f: f.udiv("%y", "%x"),
    "cmp": lambda f: f.cmp("ult", "%x", "%y"),
    "select": lambda f: f.select("%y", "%x", 0),
    "trunc": lambda f: f.trunc("%x", 8),
    "sext": lambda f: f.sext("%x", 8),
    "gep": lambda f: f.gep("%y", "%x", 4),
    "load": lambda f: f.load("%x", 8),
    "store-addr": lambda f: f.store("%x", 1, 8),
    "store-value": lambda f: f.store("%y", "%x", 8),
    "free": lambda f: f.free("%x"),
    "malloc": lambda f: f.malloc("%x"),
    "call-arg": lambda f: f.call("id", ["%x"]),
    "spawn-arg": lambda f: f.spawn("id", ["%x"]),
    "output": lambda f: f.output("out", "%x", 8),
    "assert": lambda f: f.assert_("%x"),
    "ptwrite": lambda f: f.ptwrite("%x", 3),
    "join": lambda f: f.join("%x"),
    "lock": lambda f: f.lock("%x"),
    "unlock": lambda f: f.unlock("%x"),
    "br": lambda f: (f.br("%x", "t", "t"), f.block("t")),
    "ret": lambda f: (f.ret("%x"), f.block("t")),
}


@pytest.mark.parametrize("use", sorted(UNSET_USES))
def test_unset_register_identical(use):
    module = _unset_program(UNSET_USES[use])
    outcome = assert_same(module,
                          lambda: Environment({"stdin": b"\x00"}))["outcome"]
    assert outcome[0] == "raised"
    assert "read of unset register %x in main" in outcome[2]
    assert_same(module, lambda: Environment({"stdin": b"\x01"}))


def _single(emit, quantum=50):
    b = ModuleBuilder("single")
    f = b.function("main", [])
    f.block("entry")
    emit(f)
    f.ret(0)
    return b.build(), (lambda: Environment({}, quantum=quantum))


def test_unknown_join_identical():
    module, env = _single(lambda f: f.join(7))
    assert assert_same(module, env)["outcome"] == (
        "raised", InterpError, "join of unknown thread 7")


def test_unlock_by_non_owner_identical():
    module, env = _single(lambda f: f.unlock(3))
    outcome = assert_same(module, env)["outcome"]
    assert outcome[2] == "thread 0 unlocking mutex 3 it doesn't own"


def test_unlock_of_mutex_held_by_another_thread_identical():
    b = ModuleBuilder("steal")
    t = b.function("holder", [])
    t.block("entry")
    t.lock(5)
    t.ret(0)
    f = b.function("main", [])
    f.block("entry")
    f.join(f.spawn("holder", []))
    f.unlock(5)
    f.ret(0)
    outcome = assert_same(b.build(), lambda: Environment({}, quantum=2),
                          hook=True)["outcome"]
    assert outcome[2] == "thread 0 unlocking mutex 5 it doesn't own"


FAILING = {
    "div-by-zero": lambda f: f.urem(f.input("stdin", 1), 0),
    "assert": lambda f: f.assert_(f.cmp("eq", f.input("stdin", 1), 9)),
    "abort": lambda f: (f.nop(), f.abort("bad state"), f.block("after")),
    "null-deref": lambda f: f.load(8, 8),
    "wild": lambda f: f.store(0x5000_0000, 1, 8),
    "use-after-free": lambda f: (f.free(f.malloc(16, dest="%p")),
                                 f.load("%p", 1)),
    "double-free": lambda f: (f.free(f.malloc(16, dest="%p")),
                              f.free("%p")),
    "overflow": lambda f: f.store(f.gep(f.alloca("buf", 8), 6), 1, 4),
    "deadlock": lambda f: (f.lock(1), f.join(f.spawn("grab", []))),
    "stack-overflow": lambda f: f.call("forever", [1]),
}


@pytest.mark.parametrize("kind", sorted(FAILING))
@pytest.mark.parametrize("hook", [False, True])
def test_failures_identical(kind, hook):
    b = ModuleBuilder("failing")
    grab = b.function("grab", [])
    grab.block("entry")
    grab.lock(1)
    grab.ret(0)
    forever = b.function("forever", ["n"])
    forever.block("entry")
    forever.ret(forever.call("forever", [forever.add("%n", 1)]))
    f = b.function("main", [])
    f.block("entry")
    f.output("out", 1, 1)
    FAILING[kind](f)
    f.ret(0)
    observed = assert_same(b.build(),
                           lambda: Environment({"stdin": b"\x02"}, quantum=4),
                           hook=hook, stack_limit=40)
    assert observed["outcome"][0] is not None


def test_call_and_return_identical(call_module):
    assert_same(call_module, lambda: Environment({"stdin": b"\x15"}),
                hook=True)


# ----------------------------------------------------------------------
# fused runs: straight-line register code plus its closing br/jmp runs
# as one generated function; each case below is one a naive fusion
# gets wrong


def _fused_program(use):
    """main: ``%x`` is set only when the input byte is 1; block ``run``
    holds ``use(f)`` between straight-line instructions, so whatever
    ``use`` does happens inside a fused run.  The run's first
    instruction increments ``%y``, so running it twice shows."""
    b = ModuleBuilder("fused")
    f = b.function("main", [])
    f.block("entry")
    c = f.input("stdin", 1, dest="%c")
    f.const(3, dest="%y")
    f.br(f.cmp("eq", c, 1), "def", "run")
    f.block("def")
    f.const(8, dest="%x")
    f.jmp("run")
    f.block("run")
    f.add("%y", 1, dest="%y")
    f.xor("%y", 5, dest="%b")
    use(f)
    f.shl("%b", 2, dest="%d")
    f.br(f.cmp("ult", "%d", 100), "out", "out")
    f.block("out")
    f.output("stdout", "%b", 8)
    f.ret(0)
    return b.build(), (lambda: Environment({"stdin": b"\x00"}))


def test_unset_register_inside_run_reports_its_point():
    """The third instruction of the run reads unset ``%x``: the two
    before it retire (six in the chunk), the frame points at it, and the
    message names ``%x``; reporting the run's start instead gives
    ("end", 4) and index 0."""
    module, env = _fused_program(lambda f: f.add("%b", "%x", dest="%e"))
    observed = assert_same(module, env)
    assert observed["outcome"] == (
        "raised", InterpError, "read of unset register %x in main")
    assert observed["tracer"][-1] == ("end", 6)
    assert observed["threads"][0][4][-1][1:3] == ("run", 2)


@pytest.mark.parametrize("use", ["first", "branch", "global"])
def test_error_at_each_position_of_a_run(use, with_instr):
    """An unset read as the run's first instruction, as its closing
    branch's condition, and a global lookup that fails mid-run."""
    b = ModuleBuilder("positions")
    b.global_("G", 8)
    f = b.function("main", [])
    f.block("entry")
    f.const(0, dest="%n")
    f.jmp("run")
    f.block("never")  # defines %x for the verifier; never entered
    f.const(0, dest="%x")
    f.jmp("run")
    f.block("run")
    if use == "first":
        f.add("%x", 1, dest="%a")
        f.jmp("run")
    elif use == "branch":
        f.add("%n", 1, dest="%n")
        f.br("%x", "run", "run")
    else:
        f.add("%n", 1, dest="%n")
        f.global_addr("G", dest="%g")
        f.jmp("run")
    module = b.build()
    if use == "global":  # a global the module does not define
        point = ProgramPoint("main", "run", 1)
        module = with_instr(module, point,
                            replace(module.instr_at(point), name="H"))
    observed = assert_same(module, lambda: Environment({}))
    kind = observed["outcome"][:2]
    if use == "global":
        assert kind == ("raised", KeyError)
        assert "unset register" not in observed["outcome"][2]
    else:
        assert kind == ("raised", InterpError)


def test_division_by_zero_right_after_a_run():
    """A run ending in ``%z = sub ...`` falls through to a trapping
    ``udiv`` by ``%z``: the trap is recorded at the divide."""
    def use(f):
        f.sub("%y", 4, dest="%z")
        f.udiv("%b", "%z", dest="%q")
    module, env = _fused_program(use)
    observed = assert_same(module, env)
    failure = observed["outcome"][0]
    assert failure.kind.name == "DIV_BY_ZERO"
    assert (failure.point.block, failure.point.index) == ("run", 3)


#: faults an instruction of a run can make: ``%z`` is 0 and ``%e`` is 6
#: bytes into an 8-byte global
RUN_FAULTS = {
    "null-deref": (lambda f: f.load("%z", 8), "NULL_DEREF"),
    "wild": (lambda f: f.store(0x5000_0000, "%n", 8), "OUT_OF_BOUNDS"),
    "overrun": (lambda f: f.store("%e", "%n", 4), "OUT_OF_BOUNDS"),
    "div-by-zero": (lambda f: f.udiv("%n", "%z", dest="%q"),
                    "DIV_BY_ZERO"),
}


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("fault", sorted(RUN_FAULTS))
def test_fault_at_each_position_of_a_run(fault, position):
    """Block ``run`` is one fused run of five instructions and a jmp;
    instruction ``position`` faults and the others write the global
    through ``%e`` and ``%z`` and add to ``%n``, so a fault past the
    first position uses registers the run has already read, right after
    an ``add`` that must not run twice.  The instructions before the
    fault retire (the five of ``entry`` too), the fault is reported at
    its own point, and nothing after it happens."""
    emit, kind = RUN_FAULTS[fault]
    b = ModuleBuilder("faults")
    b.global_("G", 8)
    f = b.function("main", [])
    f.block("entry")
    f.input("stdin", 1, dest="%z")
    f.const(0, dest="%n")
    f.global_addr("G", dest="%g")
    f.gep("%g", 6, dest="%e")
    f.jmp("run")
    f.block("run")
    for index in range(5):
        if index == position:
            emit(f)
        elif index % 2:
            f.add("%n", 1, dest="%n")
        else:
            f.store("%e", "%z", 1)
    f.jmp("after")
    f.block("after")
    f.output("out", "%n", 8)
    f.ret(0)
    module = b.build()
    instrs = module.functions["main"].blocks["run"].instrs
    assert _straight_runs(instrs) == [(0, 6)]
    observed = assert_same(module, lambda: Environment({"stdin": b"\x00"}))
    failure = observed["outcome"][0]
    assert failure.kind.name == kind
    assert (failure.point.block, failure.point.index) == ("run", position)
    assert observed["tracer"][-1] == ("end", 5 + position)


def test_freed_heap_object_leaves_its_site():
    """The loop's first pass caches the heap object at the load's site;
    the ``free`` after the run kills it, so the second pass's load is a
    use-after-free.  Taking the cached object without its ``live`` flag
    reads the dead bytes and ends in a double free instead."""
    b = ModuleBuilder("heap")
    f = b.function("main", [])
    f.block("entry")
    f.malloc(16, dest="%p")
    f.const(0, dest="%i")
    f.jmp("loop")
    f.block("loop")
    f.load("%p", 8, dest="%v")
    f.add("%v", 1, dest="%i")
    f.store("%p", "%i", 8)
    f.free("%p")
    f.jmp("loop")
    module = b.build()
    assert _straight_runs(module.functions["main"].blocks["loop"].instrs) \
        == [(0, 3)]
    failure = assert_same(module, lambda: Environment({}))["outcome"][0]
    assert failure.kind.name == "USE_AFTER_FREE"
    assert (failure.point.block, failure.point.index) == ("loop", 0)


def test_returned_frame_object_leaves_its_site():
    """``touch`` first runs on a live stack object of ``holder``, which
    its sites cache; ``holder`` returns, and the second ``touch`` of the
    same address must be a use-after-free."""
    b = ModuleBuilder("stack")
    touch = b.function("touch", ["p"])
    touch.block("entry")
    touch.load("%p", 8, dest="%v")
    touch.add("%v", 1, dest="%w")
    touch.store("%p", "%w", 8)
    touch.ret("%w")
    holder = b.function("holder", [])
    holder.block("entry")
    holder.alloca("buf", 8, dest="%b")
    holder.call("touch", ["%b"])
    holder.ret("%b")
    m = b.function("main", [])
    m.block("entry")
    m.call("holder", [], dest="%p")
    m.call("touch", ["%p"])
    m.ret(0)
    failure = assert_same(b.build(), lambda: Environment({}))["outcome"][0]
    assert failure.kind.name == "USE_AFTER_FREE"
    assert failure.call_stack == ("main", "touch")
    assert (failure.point.block, failure.point.index) == ("entry", 0)


def _looping_threads():
    """Two threads run a loop whose body is one six-instruction fused
    run, so every chunk edge of a small quantum lands inside a run."""
    b = ModuleBuilder("loops")
    w = b.function("work", ["k"])
    w.block("entry")
    w.const(0, dest="%i")
    w.const(0, dest="%acc")
    w.jmp("loop")
    w.block("loop")
    w.mul("%i", "%k", width=32, dest="%t")
    w.add("%acc", "%t", width=16, dest="%acc")
    w.trunc("%acc", 8, dest="%lo")
    w.add("%i", 1, dest="%i")
    w.cmp("slt", "%i", 9, width=8, dest="%more")
    w.br("%more", "loop", "done")
    w.block("done")
    w.output("out", "%lo", 1)
    w.ret("%acc")
    m = b.function("main", [])
    m.block("entry")
    first = m.spawn("work", [3])
    second = m.spawn("work", [5])
    m.join(first)
    m.join(second)
    m.ret(0)
    return b.build()


@pytest.mark.parametrize("quantum", [1, 3, 4, 50])
def test_chunk_edges_inside_runs_identical(quantum):
    assert_same(_looping_threads(), lambda: Environment({}, quantum=quantum))


@pytest.mark.parametrize("hang_as_failure", [False, True])
def test_max_steps_cut_inside_runs_identical(hang_as_failure):
    module = _looping_threads()
    for max_steps in range(0, 80):
        assert_same(module, lambda: Environment({}, quantum=7),
                    max_steps=max_steps, hang_as_failure=hang_as_failure)


_PURE_BINOPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "lshr",
                "ashr"]
_DIVISIONS = ["udiv", "sdiv", "urem", "srem"]
_CMPS = ["eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge"]
_SIZES = [1, 2, 4, 8]


@st.composite
def straight_line_programs(draw):
    """Two 64-bit inputs, then one long block of every fusible kind of
    instruction at every width, over registers and immediates (negative
    and wider than 64 bits too), closed by a branch.  Accesses go to a
    16-byte global at offsets that sometimes overrun it, and divisors may
    be zero, so some runs fault part-way."""
    imm = st.one_of(st.integers(-5, 5), st.integers(-(1 << 70), 1 << 70),
                    st.sampled_from([0x7F, 0x80, 0xFF, 0x8000, 1 << 63,
                                     (1 << 64) - 1]))
    b = ModuleBuilder("straight")
    b.global_("G", 16)
    f = b.function("main", [])
    f.block("entry")
    regs = [f.input("stdin", 8, dest="%a"), f.input("stdin", 8, dest="%b")]
    f.global_addr("G", dest="%g")
    f.jmp("run")
    f.block("run")

    def operand():
        return draw(st.one_of(st.sampled_from(regs), imm))

    def address():
        return f.gep("%g", draw(st.integers(0, 9)))

    for i in range(draw(st.integers(1, 12))):
        dest = draw(st.sampled_from(regs + [f"%r{i}"]))
        width = draw(st.sampled_from([1, 8, 16, 32, 64]))
        kind = draw(st.sampled_from(["binop", "div", "cmp", "trunc", "sext",
                                     "gep", "const", "global", "load",
                                     "store", "input", "ptwrite"]))
        if kind in ("store", "ptwrite"):  # no destination
            if kind == "store":
                f.store(address(), operand(), draw(st.sampled_from(_SIZES)))
            else:
                f.ptwrite(operand(), i)  # tags are unique
            continue
        if kind == "binop":
            f.binop(draw(st.sampled_from(_PURE_BINOPS)), operand(),
                    operand(), width=width, dest=dest)
        elif kind == "div":
            f.binop(draw(st.sampled_from(_DIVISIONS)), operand(),
                    operand(), width=width, dest=dest)
        elif kind == "load":
            f.load(address(), draw(st.sampled_from(_SIZES)), dest=dest)
        elif kind == "input":
            f.input(draw(st.sampled_from(["stdin", "clock"])),
                    draw(st.sampled_from(_SIZES)), dest=dest)
        elif kind == "cmp":
            f.cmp(draw(st.sampled_from(_CMPS)), operand(), operand(),
                  width=width, dest=dest)
        elif kind == "trunc":
            f.trunc(operand(), width, dest=dest)
        elif kind == "sext":
            f.sext(operand(), width, dest=dest)
        elif kind == "gep":
            f.gep(operand(), operand(), draw(imm), dest=dest)
        elif kind == "const":
            f.const(draw(imm), dest=dest)
        else:
            f.global_addr("G", dest=dest)
        if dest not in regs:
            regs.append(dest)
    f.br(operand(), "yes", "no")
    for label in ("yes", "no"):
        f.block(label)
        for reg in regs:
            f.output(label, reg, 8)
        f.ret(0)
    return b.build()


@settings(**_SETTINGS)
@given(straight_line_programs(), st.binary(min_size=16, max_size=40))
def test_straight_line_programs_identical(module, data):
    assert_same(module, lambda: Environment({"stdin": data}))


#: immediates whose masking matters: sign bits, all-ones, wider than 64
_IMMEDIATES = [1, 0x81, -1, 1 << 63, (1 << 70) + 0x85]
#: register values: the same edges, plus shift counts past the width
_VALUES = [0, 3, 0x7F, 0x80FF, 0x8000_0001, 1 << 63, (1 << 64) - 1,
           0x0123_4567_89AB_CDEF, 65]


def _every_fusible_op():
    """One block that applies every fusible instruction at every width
    to registers and immediates, then outputs every result: a single
    fused run of about 1,300 instructions.  Loads and stores of every
    size on a global, inputs of every size and ``ptwrite``s come before
    the divisions by ``%b`` at every width, so a ``%b`` that is zero at
    some width ends the run part-way."""
    b = ModuleBuilder("ops")
    b.global_("G", 16)
    f = b.function("main", [])
    f.block("entry")
    f.input("stdin", 8, dest="%a")
    f.input("stdin", 8, dest="%b")
    f.jmp("run")
    f.block("run")
    results = []
    operands = ([("%a", "%b")] + [("%a", imm) for imm in _IMMEDIATES]
                + [(imm, "%b") for imm in _IMMEDIATES])
    for width in (1, 8, 16, 32, 64):
        for op in _PURE_BINOPS:
            results += [f.binop(op, lhs, rhs, width=width)
                        for lhs, rhs in operands]
        for op in _CMPS:
            results += [f.cmp(op, lhs, rhs, width=width)
                        for lhs, rhs in operands]
        for value in ["%a"] + _IMMEDIATES:
            results += [f.trunc(value, width), f.sext(value, width)]
    for scale in [1, 8, -4, 1 << 65]:
        results += [f.gep("%a", "%b", scale), f.gep("%a", 7, scale)]
    g = f.global_addr("G")
    results += [g, f.const(-2)]
    for size in _SIZES:
        for value in ["%a"] + _IMMEDIATES:
            f.store(g, value, size)
            results.append(f.load(g, size))
        results.append(f.load(f.gep(g, 3), size))
    for stream in ("stdin", "clock"):
        results += [f.input(stream, size) for size in _SIZES]
    for tag, value in enumerate(["%a", results[-1], 0x81]):
        f.ptwrite(value, tag)
    for width in (1, 8, 16, 32, 64):
        for op in _DIVISIONS:
            results += [f.binop(op, lhs, "%b", width=width)
                        for lhs in ["%a"] + _IMMEDIATES]
    f.br("%a", "out", "out")
    f.block("out")
    for reg in results:
        f.output("out", reg, 8)
    f.ret(0)
    return b.build()


def test_every_fusible_op_identical():
    module = _every_fusible_op()
    run = module.functions["main"].blocks["run"].instrs
    assert _straight_runs(run) == [(0, len(run))]
    for a in _VALUES:
        for b in _VALUES:
            data = (a.to_bytes(8, "little") + b.to_bytes(8, "little")
                    + bytes(range(0x80, 0x8F)))
            assert_same(module, lambda: Environment({"stdin": data},
                                                    quantum=10_000))


#: register names, labels, global and stream names that would break,
#: or run code in, source text they were spliced into
_HOSTILE = ['%a"]; raise SystemExit  # ', "%b\n    return 0", "%{c}",
            "%d' + __import__('os').sep + '", "e', 1), 'little'"]


def _hostile_module():
    b = ModuleBuilder("hostile")
    b.global_(_HOSTILE[3][1:], 8)
    f = b.function("main", [])
    f.block(_HOSTILE[0])
    f.input("stdin", 1, dest=_HOSTILE[0])
    f.jmp(_HOSTILE[1])
    f.block(_HOSTILE[1])
    f.add(_HOSTILE[0], 1, dest=_HOSTILE[1])
    f.global_addr(_HOSTILE[3][1:], dest=_HOSTILE[2])
    f.store(_HOSTILE[2], _HOSTILE[1], 2)
    f.input(_HOSTILE[4], 2, dest=_HOSTILE[0])
    f.br(f.cmp("ugt", _HOSTILE[1], 3, dest=_HOSTILE[3]), _HOSTILE[2],
         _HOSTILE[0])
    f.block(_HOSTILE[2])
    f.output("out", f.load(_HOSTILE[2], 8), 8)
    f.ret(_HOSTILE[1])
    return b.build()


def test_generated_runs_bind_names_never_splice_them():
    """Register names, labels, global and stream names reach a fused run
    as bound values: the generated code holds only integer literals and
    fixed names, and it runs hostile names like any others."""
    module = _hostile_module()
    assert_same(module, lambda: Environment({"stdin": b"\x07",
                                             _HOSTILE[4]: b"\x01\x02"}))
    instrs = module.functions["main"].blocks[_HOSTILE[1]].instrs
    assert _straight_runs(instrs) == [(0, 6)]
    run = _fused_run(instrs)
    code = run.__code__
    assert all(isinstance(value, int) or value is None
               for value in code.co_consts)
    names = code.co_names + code.co_varnames + code.co_freevars
    assert all(name.isidentifier() and name.isascii() for name in names)
    assert set(run.__closure__[i].cell_contents
               for i in range(len(code.co_freevars))) \
        >= set(_HOSTILE[:3]) | {_HOSTILE[3][1:], _HOSTILE[4]}


def test_rebuilt_runs_share_code_not_sites():
    """Generating a run again compiles nothing: both functions run one
    code object, and only their access-site keys differ."""
    instrs = _hostile_module().functions["main"].blocks[_HOSTILE[1]].instrs
    first, second = _fused_run(instrs), _fused_run(instrs)
    assert first.__code__ is second.__code__
    cells = [[cell.cell_contents for cell in run.__closure__]
             for run in (first, second)]
    differ = [a != b for a, b in zip(*cells)]
    assert differ.count(True) == 1  # the store's site
