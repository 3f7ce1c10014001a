"""Engine edge cases: PTW mismatches, event framing, benign ends."""

import pytest

from repro.core import ExecutionReconstructor, ProductionSite
from repro.core.instrument import instrument
from repro.core.selection import RecordingItem
from repro.errors import ReconstructionError
from repro.interp.env import Environment
from repro.interp.failures import FailureKind, MemoryFault
from repro.interp.interpreter import Interpreter
from repro.ir import instructions as ins
from repro.ir.builder import ModuleBuilder
from repro.ir.module import ProgramPoint
from repro.symex.engine import ShepherdedSymex
from repro.symex.memory import SymMemory
from repro.trace.decoder import decode
from repro.trace.encoder import PTEncoder
from repro.trace.packets import PtwEvent
from repro.trace.ringbuffer import RingBuffer
from repro.workloads import get_workload


def traced(module, env):
    encoder = PTEncoder(RingBuffer())
    run = Interpreter(module, env, tracer=encoder).run()
    return run, decode(encoder.buffer)


def instrumented_module():
    b = ModuleBuilder("ptwm")
    f = b.function("main", [])
    f.block("entry")
    x = f.input("stdin", 1, dest="%x")
    y = f.add("%x", 1, dest="%y")
    f.ptwrite("%y", tag=3)
    ok = f.cmp("ne", "%y", 0, width=8)
    f.assert_(ok, "wrapped to zero")
    f.ret(0)
    return b.build()


class TestPtwHandling:
    def test_tag_mismatch_diverges(self):
        module = instrumented_module()
        run, trace = traced(module, Environment({"stdin": b"\xff"}))
        assert run.failure is not None
        for chunk in trace.chunks:
            chunk.events[:] = [PtwEvent(99, e.value)
                               if isinstance(e, PtwEvent) else e
                               for e in chunk.events]
        result = ShepherdedSymex(module, trace, run.failure).run()
        assert result.status == "diverged"
        assert "tag" in result.divergence_reason

    def test_value_constrains_inputs(self):
        module = instrumented_module()
        run, trace = traced(module, Environment({"stdin": b"\x07"}))
        assert run.failure is None
        result = ShepherdedSymex(module, trace, None).run()
        assert result.completed
        assert result.model.streams()["stdin"][0] == 0x07

    def test_const_value_mismatch_diverges(self):
        b = ModuleBuilder("cptw")
        f = b.function("main", [])
        f.block("entry")
        c = f.const(5, dest="%c")
        f.ptwrite("%c", tag=0)
        f.ret(0)
        module = b.build()
        run, trace = traced(module, Environment({}))
        for chunk in trace.chunks:
            chunk.events[:] = [PtwEvent(0, 999)
                               if isinstance(e, PtwEvent) else e
                               for e in chunk.events]
        result = ShepherdedSymex(module, trace, None).run()
        assert result.status == "diverged"

    def test_missing_ptw_event_diverges(self):
        module = instrumented_module()
        run, trace = traced(module, Environment({"stdin": b"\x07"}))
        for chunk in trace.chunks:
            chunk.events[:] = [e for e in chunk.events
                               if not isinstance(e, PtwEvent)]
        result = ShepherdedSymex(module, trace, None).run()
        assert result.status == "diverged"


class TestBenignEnds:
    def test_main_return_value_irrelevant_to_replay(self, call_module):
        run, trace = traced(call_module, Environment({"stdin": b"\x09"}))
        result = ShepherdedSymex(call_module, trace, None).run()
        assert result.completed

    def test_outputs_collected_as_terms(self, abort_module):
        run, trace = traced(abort_module, Environment({"stdin": b"\x05"}))
        engine = ShepherdedSymex(abort_module, trace, None)
        result = engine.run()
        assert result.completed
        assert "stdout" in engine.outputs
        assert len(engine.outputs["stdout"]) == 1

    def test_failure_tid_checked(self, abort_module):
        import dataclasses

        run, trace = traced(abort_module, Environment({"stdin": b"\xff"}))
        wrong_tid = dataclasses.replace(run.failure, tid=5)
        result = ShepherdedSymex(abort_module, trace, wrong_tid).run()
        assert result.status == "diverged"

    def test_failure_point_checked(self, abort_module):
        import dataclasses

        run, trace = traced(abort_module, Environment({"stdin": b"\xff"}))
        wrong = dataclasses.replace(
            run.failure, point=ProgramPoint("main", "ok", 0))
        result = ShepherdedSymex(abort_module, trace, wrong).run()
        assert result.status == "diverged"


class TestInstrumentedRoundTrip:
    def test_selection_instrument_replay_cycle(self, table_module):
        """Manual one-iteration cycle: stall -> select -> instrument ->
        retrace -> complete, outside the reconstructor."""
        from repro.core.selection import select_key_values

        env = Environment({"stdin": bytes([9, 9])})
        run, trace = traced(table_module, env)
        first = ShepherdedSymex(table_module, trace, run.failure,
                                work_limit=30).run()
        assert first.stalled
        plan = select_key_values(first.stall)
        assert plan.items
        inst = instrument(table_module, plan.items)
        run2, trace2 = traced(inst.module, Environment(
            {"stdin": bytes([9, 9])}))
        assert run2.ptwrite_count >= 1
        second = ShepherdedSymex(inst.module, trace2, run2.failure,
                                 work_limit=100_000).run()
        assert second.completed


class TestFree:
    """``free`` turns the one error ``SymMemory.free_heap`` raises, a
    ``MemoryFault``, into a divergence; anything else is a bug and must
    surface as itself, not as a divergence (or, after a concretization,
    a stall).  pbzip2-uaf's exact reconstruction replays a ``free`` once
    its first recording lets symbolic execution past ``dict_add``."""

    @staticmethod
    def _reconstruct_pbzip2():
        workload = get_workload("pbzip2-uaf")
        er = ExecutionReconstructor(workload.fresh_module(),
                                    work_limit=workload.work_limit,
                                    max_occurrences=workload.max_occurrences)
        return er.reconstruct(ProductionSite(workload.failing_env))

    def test_internal_error_propagates(self, monkeypatch):
        def broken(self, addr):
            raise RuntimeError("free_heap bug")

        monkeypatch.setattr(SymMemory, "free_heap", broken)
        with pytest.raises(RuntimeError, match="free_heap bug"):
            self._reconstruct_pbzip2()

    def test_memory_fault_diverges(self, monkeypatch):
        def double_free(self, addr):
            raise MemoryFault(FailureKind.DOUBLE_FREE, addr)

        monkeypatch.setattr(SymMemory, "free_heap", double_free)
        with pytest.raises(ReconstructionError,
                           match="free diverged at main:eager_free:0"):
            self._reconstruct_pbzip2()
