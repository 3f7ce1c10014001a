"""rr-style record/replay baseline."""

from dataclasses import replace

import pytest

from repro.baselines.rr import RRBaseline, RRRecording
from repro.errors import ReproError
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.ir.module import ProgramPoint


class TestRecordReplay:
    def test_replay_reproduces_failure(self, abort_module):
        rr = RRBaseline()
        recording = rr.record(abort_module, Environment({"stdin": b"\xff"}))
        assert recording.failure is not None
        assert rr.replay_matches(abort_module, recording)

    def test_replay_reproduces_benign_run(self, abort_module):
        rr = RRBaseline()
        recording = rr.record(abort_module, Environment({"stdin": b"\x01"}))
        assert recording.failure is None
        assert rr.replay_matches(abort_module, recording)

    def test_replay_is_bit_exact(self, call_module):
        rr = RRBaseline()
        env = Environment({"stdin": bytes([33])})
        recording = rr.record(call_module, env)
        result = rr.replay(call_module, recording)
        assert result.return_value == 66
        assert result.instr_count == recording.instr_count

    def test_replays_thread_schedules(self, spawn_module):
        rr = RRBaseline()
        recording = rr.record(spawn_module, Environment({}, quantum=3))
        replayed = rr.replay(spawn_module, recording)
        original = Interpreter(spawn_module,
                               Environment({}, quantum=3)).run()
        assert replayed.outputs == original.outputs

    def test_divergent_program_detected(self, abort_module, with_instr):
        rr = RRBaseline()
        recording = rr.record(abort_module, Environment({"stdin": b"\xff"}))
        point = ProgramPoint("main", "entry", 0)
        other = with_instr(abort_module, point, replace(
            abort_module.instr_at(point), stream="other-stream"))
        with pytest.raises(ReproError):
            rr.replay(other, recording)

    def test_log_size_scales_with_events(self, abort_module):
        rr = RRBaseline()
        small = rr.record(abort_module, Environment({"stdin": b"\x01"}))
        assert small.event_count >= 1
        assert small.log_bytes() > 0

    def test_clock_values_replayed(self):
        from repro.ir.builder import ModuleBuilder

        b = ModuleBuilder("clocky")
        f = b.function("main", [])
        f.block("entry")
        t = f.input("clock", 8)
        f.output("stdout", t, 8)
        f.ret(0)
        module = b.build()
        rr = RRBaseline()
        env = Environment({}, clock_start=777, clock_step=1)
        recording = rr.record(module, env)
        replayed = rr.replay(module, recording)
        assert replayed.outputs["stdout"] == (777).to_bytes(8, "little")
