"""Shepherded symbolic execution: replay, constraints, concretization."""

import gc
import weakref

import pytest

from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.ir import instructions as ins
from repro.ir.builder import ModuleBuilder
from repro.symex.engine import ShepherdedSymex
from repro.trace.decoder import decode
from repro.trace.encoder import PTEncoder
from repro.trace.ringbuffer import RingBuffer


def trace_of(module, env, **interp_kwargs):
    encoder = PTEncoder(RingBuffer())
    result = Interpreter(module, env, tracer=encoder, **interp_kwargs).run()
    return result, decode(encoder.buffer)


def symex_of(module, env, **kwargs):
    result, trace = trace_of(module, env)
    engine = ShepherdedSymex(module, trace, result.failure, **kwargs)
    return result, engine.run()


def replay(module, sym_result, quantum=50):
    env = Environment(sym_result.model.streams(), quantum=quantum)
    return Interpreter(module, env).run()


class TestBasicReplay:
    def test_abort_reproduced(self, abort_module):
        run, res = symex_of(abort_module, Environment({"stdin": b"\xc8"}))
        assert res.completed
        rerun = replay(abort_module, res)
        assert rerun.failure is not None
        assert rerun.failure.matches(run.failure)

    def test_generated_input_respects_constraints(self, abort_module):
        _, res = symex_of(abort_module, Environment({"stdin": b"\xc8"}))
        assert res.model.streams()["stdin"][0] >= 100

    def test_benign_trace_completes_without_failure(self, abort_module):
        run, trace = trace_of(abort_module, Environment({"stdin": b"\x01"}))
        assert run.failure is None
        res = ShepherdedSymex(abort_module, trace, None).run()
        assert res.completed

    def test_instruction_counts_match(self, abort_module):
        run, trace = trace_of(abort_module, Environment({"stdin": b"\x01"}))
        res = ShepherdedSymex(abort_module, trace, None).run()
        assert res.stats.instrs_executed == run.instr_count

    def test_exec_counts_track_points(self, abort_module):
        run, trace = trace_of(abort_module, Environment({"stdin": b"\x01"}))
        res = ShepherdedSymex(abort_module, trace, None).run()
        assert sum(res.exec_counts.values()) == run.instr_count

    def test_call_return_replay(self, call_module):
        run, res = symex_of(call_module, Environment({"stdin": b"\x15"}))
        assert res.completed


class TestSymbolicMemory:
    def test_symbolic_store_replayed(self, table_module):
        env = Environment({"stdin": bytes([5, 5])})
        run, res = symex_of(table_module, env)
        assert res.completed
        rerun = replay(table_module, res)
        assert rerun.failure is not None and rerun.failure.matches(run.failure)

    def test_alias_constraint_enforced(self, table_module):
        env = Environment({"stdin": bytes([5, 5])})
        _, res = symex_of(table_module, env)
        stdin = res.model.streams()["stdin"]
        assert stdin[0] == stdin[1]  # the abort requires x == y

    def test_non_alias_path(self, table_module):
        env = Environment({"stdin": bytes([5, 9])})  # benign path
        run, trace = trace_of(table_module, env)
        assert run.failure is None
        res = ShepherdedSymex(table_module, trace, None).run()
        assert res.completed
        stdin = res.model.streams()["stdin"]
        assert stdin[0] != stdin[1]


class TestFailureKinds:
    def _module_oob(self):
        b = ModuleBuilder("oob")
        b.global_("buf", 16)
        f = b.function("main", [])
        f.block("entry")
        n = f.input("stdin", 1, dest="%n")
        g = f.global_addr("buf")
        p = f.gep(g, "%n", 1)
        f.store(p, 1, 1)
        f.ret(0)
        return b.build()

    def test_oob_write_reproduced(self):
        module = self._module_oob()
        run, res = symex_of(module, Environment({"stdin": bytes([40])}))
        assert run.failure is not None and res.completed
        assert res.model.streams()["stdin"][0] >= 16
        rerun = replay(module, res)
        assert rerun.failure.matches(run.failure)

    def test_null_deref_reproduced(self):
        b = ModuleBuilder("null")
        b.global_("slot", 8)
        f = b.function("main", [])
        f.block("entry")
        x = f.input("stdin", 1, dest="%x")
        g = f.global_addr("slot", dest="%g")
        is_zero = f.cmp("eq", "%x", 0, width=8)
        ptr = f.select(is_zero, 0, "%g")
        v = f.load(ptr, 8)
        f.ret(v)
        module = b.build()
        run, res = symex_of(module, Environment({"stdin": b"\x00"}))
        assert res.completed
        assert res.model.streams()["stdin"][0] == 0

    def test_div_by_zero_reproduced(self):
        b = ModuleBuilder("div")
        f = b.function("main", [])
        f.block("entry")
        x = f.input("stdin", 1, dest="%x")
        q = f.udiv(100, "%x", width=8)
        f.output("stdout", q, 1)
        f.ret(0)
        module = b.build()
        run, res = symex_of(module, Environment({"stdin": b"\x00"}))
        assert res.completed
        assert res.model.streams()["stdin"][0] == 0

    def test_assert_failure_reproduced(self):
        b = ModuleBuilder("asrt")
        f = b.function("main", [])
        f.block("entry")
        x = f.input("stdin", 1, dest="%x")
        ok = f.cmp("ne", "%x", 7, width=8)
        f.assert_(ok, "x must not be 7")
        f.ret(0)
        module = b.build()
        run, res = symex_of(module, Environment({"stdin": b"\x07"}))
        assert res.completed
        assert res.model.streams()["stdin"][0] == 7

    def test_use_after_free_reproduced(self):
        b = ModuleBuilder("uaf")
        f = b.function("main", [])
        f.block("entry")
        p = f.malloc(8, dest="%p")
        x = f.input("stdin", 1, dest="%x")
        f.br(f.cmp("eq", "%x", 1, width=8), "bad", "good")
        f.block("bad")
        f.free("%p")
        f.jmp("use")
        f.block("good")
        f.jmp("use")
        f.block("use")
        v = f.load("%p", 1)
        f.ret(v)
        module = b.build()
        run, res = symex_of(module, Environment({"stdin": b"\x01"}))
        assert res.completed
        assert res.model.streams()["stdin"][0] == 1


class TestPtwriteConcretization:
    def _instrumented(self):
        b = ModuleBuilder("ptw")
        b.global_("V", 64)
        f = b.function("main", [])
        f.block("entry")
        a = f.input("stdin", 1, dest="%a")
        bb = f.input("stdin", 1, dest="%b")
        x = f.add("%a", "%b", width=8, dest="%x")
        f.ptwrite("%x", tag=0)
        g = f.global_addr("V")
        p = f.gep(g, "%x", 1)
        f.store(p, 1, 1)
        v = f.load(p, 1, dest="%v")
        f.assert_(f.cmp("eq", "%v", 1, width=8), "readback")
        f.ret(0)
        return b.build()

    def test_ptw_value_consumed_and_constrains(self):
        module = self._instrumented()
        env = Environment({"stdin": bytes([3, 4])})
        run, res = symex_of(module, env)
        assert res.completed
        streams = res.model.streams()
        assert (streams["stdin"][0] + streams["stdin"][1]) % 256 == 7

    def test_ptw_makes_downstream_concrete(self):
        module = self._instrumented()
        env = Environment({"stdin": bytes([3, 4])})
        run, trace = trace_of(module, env)
        engine = ShepherdedSymex(module, trace, run.failure)
        result = engine.run()
        # the store index was concretized: no object has a write chain
        assert not engine.memory.objects_with_chains()


class TestDivergence:
    def test_wrong_program_version_diverges(self, abort_module):
        run, trace = trace_of(abort_module, Environment({"stdin": b"\xc8"}))
        other = abort_module.clone()
        # flip the branch targets: trace no longer matches
        br = other.function("main").block("entry").instrs[-1]
        br.if_true, br.if_false = br.if_false, br.if_true
        res = ShepherdedSymex(other, trace, run.failure).run()
        assert res.status == "diverged"

    def test_truncated_events_diverge(self, abort_module):
        run, trace = trace_of(abort_module, Environment({"stdin": b"\xc8"}))
        trace.chunks[0].events.append(
            __import__("repro.trace.packets", fromlist=["TntEvent"])
            .TntEvent(True))
        res = ShepherdedSymex(abort_module, trace, run.failure).run()
        assert res.status == "diverged"


class TestConcurrencyReplay:
    def test_chunked_schedule_replayed(self, spawn_module):
        env = Environment({}, quantum=3)
        run, trace = trace_of(spawn_module, env)
        res = ShepherdedSymex(spawn_module, trace, None).run()
        assert res.completed
        assert res.stats.instrs_executed == run.instr_count

    def test_race_outcome_identical(self, spawn_module):
        # the racy counter value is reproduced exactly by chunk replay
        env = Environment({}, quantum=3)
        run, trace = trace_of(spawn_module, env)
        engine = ShepherdedSymex(spawn_module, trace, None)
        res = engine.run()
        counter_obj = next(o for o in engine.memory.objects()
                           if o.name == "counter")
        final = int.from_bytes(bytes(counter_obj.data), "little")
        assert final == int.from_bytes(run.outputs["stdout"], "little")


class TestRunLifetime:
    def test_finished_runs_freed_without_cycle_collector(self, table_module):
        # a finished run holds its term graph, decoded trace and memory
        # model; reference counting alone must free them
        gc.disable()
        try:
            encoder = PTEncoder(RingBuffer())
            interp = Interpreter(table_module,
                                 Environment({"stdin": bytes([9, 9])}),
                                 tracer=encoder)
            failure = interp.run().failure
            engine = ShepherdedSymex(table_module, decode(encoder.buffer),
                                     failure)
            assert engine.run().completed
            runs = [weakref.ref(interp), weakref.ref(engine)]
            del interp, engine
            assert [run() for run in runs] == [None, None]
        finally:
            gc.enable()

    def test_hooked_threaded_run_freed_without_cycle_collector(
            self, spawn_module):
        # a hooked run compiles each block into hook-wrapped steps and
        # keeps one frame per thread; none of it may point back at the
        # interpreter
        points = []
        gc.disable()
        try:
            interp = Interpreter(
                spawn_module, Environment({}, quantum=3),
                on_step=lambda thread, point, instr: points.append(point))
            result = interp.run()
            assert result.failure is None and result.thread_count == 3
            assert len(points) > result.instr_count
            run = weakref.ref(interp)
            del interp
            assert run() is None
        finally:
            gc.enable()
