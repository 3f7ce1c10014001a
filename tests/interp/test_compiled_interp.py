"""The compiled interpreter against the per-instruction reference loop.

Compiling blocks into closures may change wall time only.  Every test
here runs one program twice, once with :class:`Interpreter` and once with
:class:`ReferenceInterpreter` (the stepping code it replaced), and
requires the same run result and failure, environment events, exact
tracer call sequence, ``on_step`` sequence, final thread states and
memory, or the same exception type and message.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import InterpError
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.ir.builder import ModuleBuilder
from repro.workloads import get_workload, workload_names
from tests.interp.reference_interpreter import ReferenceInterpreter
from tests.test_properties import arithmetic_programs

_SETTINGS = dict(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class RecordingTracer:
    """Records every tracer-protocol call, in order."""

    def __init__(self):
        self.calls = []

    def begin_chunk(self, tid, timestamp):
        self.calls.append(("begin", tid, timestamp))

    def on_branch(self, taken):
        self.calls.append(("branch", taken))

    def on_ptwrite(self, tag, value):
        self.calls.append(("ptwrite", tag, value))

    def end_chunk(self, n_instrs):
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


def test_instrumented_workload_identical():
    """ptwrite tags and values reach the tracer in the same order."""
    from repro.core.instrument import instrument
    from repro.core.selection import RecordingItem

    workload = get_workload("sqlite-7be932d")
    module = workload.module()
    items = [RecordingItem(point, instr.dest_register(), 8)
             for point, instr in module.points()
             if instr.dest_register() is not None][::7]
    deployed = instrument(module, items).module
    observed = assert_same(deployed, workload.failing_env(1).clone)
    assert any(call[0] == "ptwrite" for call in observed["tracer"])


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
