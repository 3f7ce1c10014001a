"""Gap-tolerant shepherding: recovering lost TNT bits (§4)."""

from types import SimpleNamespace

import pytest

from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.solver.cache import SolverCache
from repro.symex import gaps
from repro.symex.gaps import _search_gap_decisions, replay_with_gap_recovery
from repro.trace.decoder import decode
from repro.trace.degrade import DEFAULT_LOSS, degrade_trace, gap_count
from repro.trace.encoder import PTEncoder
from repro.trace.packets import GapEvent, TntEvent
from repro.trace.ringbuffer import RingBuffer
from repro.workloads import get_workload


def traced_run(module, env):
    encoder = PTEncoder(RingBuffer())
    result = Interpreter(module, env, tracer=encoder).run()
    return result, decode(encoder.buffer)


class TestDegrade:
    def test_loss_rate_roughly_respected(self, table_module):
        run, trace = traced_run(table_module,
                                Environment({"stdin": bytes([5, 5])}))
        degraded = degrade_trace(trace, loss=1.0)
        assert gap_count(degraded) == trace.branch_count

    def test_zero_loss_identity(self, table_module):
        _, trace = traced_run(table_module,
                              Environment({"stdin": bytes([5, 5])}))
        degraded = degrade_trace(trace, loss=0.0)
        assert gap_count(degraded) == 0

    def test_seeded_determinism(self, abort_module):
        _, trace = traced_run(abort_module,
                              Environment({"stdin": b"\xc8"}))
        a = degrade_trace(trace, loss=0.5, seed=3)
        b = degrade_trace(trace, loss=0.5, seed=3)
        assert gap_count(a) == gap_count(b)

    def test_non_tnt_events_preserved(self, abort_module):
        _, trace = traced_run(abort_module,
                              Environment({"stdin": b"\xc8"}))
        degraded = degrade_trace(trace, loss=1.0)
        assert degraded.chunks[0].n_instrs == trace.chunks[0].n_instrs


class TestGapRecovery:
    def test_fully_degraded_single_branch(self, abort_module):
        run, trace = traced_run(abort_module,
                                Environment({"stdin": b"\xc8"}))
        degraded = degrade_trace(trace, loss=1.0)
        result = replay_with_gap_recovery(abort_module, degraded,
                                          run.failure)
        assert result.completed
        # the generated input still triggers the failure
        rerun = Interpreter(abort_module,
                            Environment(result.model.streams())).run()
        assert rerun.failure is not None

    def test_symbolic_gaps_searched(self, table_module):
        run, trace = traced_run(table_module,
                                Environment({"stdin": bytes([5, 5])}))
        degraded = degrade_trace(trace, loss=1.0)
        result = replay_with_gap_recovery(table_module, degraded,
                                          run.failure)
        assert result.completed
        stdin = result.model.streams()["stdin"]
        assert stdin[0] == stdin[1]  # the aliasing relation survives

    def test_paper_loss_rate_on_workloads(self):
        for name in ("libpng-2004-0597", "bash-108885",
                     "objdump-2018-6323"):
            workload = get_workload(name)
            module = workload.fresh_module()
            run, trace = traced_run(module, workload.failing_env(1))
            degraded = degrade_trace(trace, loss=DEFAULT_LOSS, seed=7)
            result = replay_with_gap_recovery(
                module, degraded, run.failure,
                work_limit=workload.work_limit * 20)
            assert result.status in ("completed", "stalled"), name

    def test_wrong_defaults_backtracked(self, abort_module):
        # the benign path: default 'taken' is wrong for this branch
        run, trace = traced_run(abort_module,
                                Environment({"stdin": b"\x01"}))
        assert run.failure is None
        degraded = degrade_trace(trace, loss=1.0)
        result = replay_with_gap_recovery(abort_module, degraded, None)
        assert result.completed
        assert result.gap_attempts >= 1

    def test_intact_trace_single_attempt(self, table_module):
        run, trace = traced_run(table_module,
                                Environment({"stdin": bytes([5, 5])}))
        result = replay_with_gap_recovery(table_module, trace,
                                          run.failure)
        assert result.completed and result.gap_attempts == 1

    def test_zero_max_attempts_rejected(self, abort_module):
        run, trace = traced_run(abort_module,
                                Environment({"stdin": b"\xc8"}))
        with pytest.raises(ValueError, match="max_attempts"):
            replay_with_gap_recovery(abort_module, trace, run.failure,
                                     max_attempts=0)
        with pytest.raises(ValueError, match="max_attempts"):
            replay_with_gap_recovery(abort_module, trace, run.failure,
                                     max_attempts=-3)


class _DivergingEngine:
    """Stub engine: always diverges after consuming ``depth`` gap bits.

    Records every decision vector it was launched with, so tests can pin
    the exact DFS order and the locked-prefix confinement.
    """

    launches = []
    depth = 2

    def __init__(self, module, trace, failure, gap_decisions=(),
                 solver_cache=None, **kwargs):
        self.decisions = list(gap_decisions)
        type(self).launches.append(list(gap_decisions))

    def run(self):
        bits = (self.decisions + [True] * type(self).depth)[
            :type(self).depth]
        return SimpleNamespace(status="diverged", gap_bits=bits,
                               gap_attempts=1,
                               divergence_reason="diverged at chunk 0",
                               diverged_chunk=0, model=None)


@pytest.fixture
def diverging_engine(monkeypatch):
    _DivergingEngine.launches = []
    _DivergingEngine.depth = 2
    monkeypatch.setattr(gaps, "ShepherdedSymex", _DivergingEngine)
    return _DivergingEngine


class TestSearchAccounting:
    """The explicit-attempt fix: the reported count is the number of
    replays actually run, not a leaked loop variable."""

    def test_exhausted_space_counts_all_attempts(self, diverging_engine):
        result = _search_gap_decisions("m", "t", None, 512,
                                       SolverCache(), {})
        # depth-2 space: TT, TF, FT, FF — four replays, then give up
        assert result.gap_attempts == 4
        assert result.divergence_reason.endswith(
            "(after 4 gap assignments)")
        assert diverging_engine.launches == \
            [[], [True, False], [False], [False, False]]

    def test_attempt_cap_respected_in_suffix(self, diverging_engine):
        result = _search_gap_decisions("m", "t", None, 3,
                                       SolverCache(), {})
        assert result.gap_attempts == 3
        assert result.divergence_reason.endswith(
            "(after 3 gap assignments)")

    def test_zero_attempts_raises_cleanly(self, diverging_engine):
        with pytest.raises(ValueError, match="max_attempts"):
            _search_gap_decisions("m", "t", None, 0, SolverCache(), {})
