"""Cross-cutting property tests: the library's core guarantees.

1. **Replay soundness**: for any program and failing input, a completed
   reconstruction's generated test case reproduces the same failure.
2. **Interp/symex agreement**: shepherded replay of a benign trace is
   consistent — the model's streams drive the program down the same
   path with the same outputs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ExecutionReconstructor, ProductionSite
from repro.errors import ReconstructionError
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.ir.builder import ModuleBuilder
from repro.symex.engine import ShepherdedSymex
from repro.trace.decoder import decode
from repro.trace.encoder import PTEncoder
from repro.trace.ringbuffer import RingBuffer

_SETTINGS = dict(max_examples=20, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def arithmetic_programs(draw):
    """Random branching programs over 3 input bytes, ending in an assert.

    The assert compares a random expression with a random constant, so a
    fraction of inputs fail — exactly the 'programmatically detectable
    failure' class ER targets.
    """
    b = ModuleBuilder("prop")
    b.global_("G", 32)
    f = b.function("main", [])
    f.block("entry")
    regs = []
    for i in range(3):
        regs.append(f.input("stdin", 1, dest=f"%in{i}"))
    n_blocks = draw(st.integers(1, 3))
    for block_index in range(n_blocks):
        op = draw(st.sampled_from(["add", "sub", "xor", "and", "or"]))
        lhs = draw(st.sampled_from(regs))
        rhs = draw(st.one_of(st.sampled_from(regs),
                             st.integers(0, 255)))
        dest = f.binop(op, lhs, rhs, width=8)
        regs.append(dest)
        cond = f.cmp(draw(st.sampled_from(["ult", "eq", "uge"])),
                     dest, draw(st.integers(0, 255)), width=8)
        then_lbl, else_lbl = f"t{block_index}", f"e{block_index}"
        join_lbl = f"j{block_index}"
        f.br(cond, then_lbl, else_lbl)
        f.block(then_lbl)
        # conditionally-defined value: used only inside this branch
        extra = f.add(dest, draw(st.integers(0, 50)), width=8)
        f.output("debug", extra, 1)
        f.jmp(join_lbl)
        f.block(else_lbl)
        f.jmp(join_lbl)
        f.block(join_lbl)
        f.nop()
    check = f.cmp("ne", draw(st.sampled_from(regs)),
                  draw(st.integers(0, 255)), width=8)
    f.assert_(check, "property assert")
    f.output("stdout", regs[-1], 1)
    f.ret(0)
    return b.build()


def _find_failing_input(module, tries=300):
    import random

    rng = random.Random(1234)
    for _ in range(tries):
        data = bytes(rng.randint(0, 255) for _ in range(3))
        result = Interpreter(module, Environment({"stdin": data})).run()
        if result.failure is not None:
            return data
    return None


class TestReplaySoundness:
    @settings(**_SETTINGS)
    @given(arithmetic_programs())
    def test_reconstruction_replays(self, module):
        failing = _find_failing_input(module)
        if failing is None:
            return  # no failing input exists for this program
        er = ExecutionReconstructor(module)
        report = er.reconstruct(ProductionSite(
            lambda occ: Environment({"stdin": failing})))
        assert report.success and report.verified
        # reconstruction never changes its module: replay on it directly
        env = Environment(dict(report.test_case.streams))
        rerun = Interpreter(module, env).run()
        assert rerun.failure is not None

    @settings(**_SETTINGS)
    @given(arithmetic_programs())
    def test_benign_trace_model_reproduces_outputs(self, module):
        import random

        rng = random.Random(99)
        data = None
        for _ in range(200):
            candidate = bytes(rng.randint(0, 255) for _ in range(3))
            run = Interpreter(module,
                              Environment({"stdin": candidate})).run()
            if run.failure is None:
                data = candidate
                break
        if data is None:
            return
        encoder = PTEncoder(RingBuffer())
        original = Interpreter(module, Environment({"stdin": data}),
                               tracer=encoder).run()
        trace = decode(encoder.buffer)
        res = ShepherdedSymex(module, trace, None).run()
        assert res.completed
        generated = res.model.streams().get("stdin", b"")
        rerun = Interpreter(module,
                            Environment({"stdin": generated})).run()
        # same control flow => same branch count and failure-freedom
        assert rerun.failure is None
        assert rerun.branch_count == original.branch_count
