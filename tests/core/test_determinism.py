"""Reconstruction determinism, cross-run isolation, unrelated-failure
budgeting — the invariants the batch runner depends on."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import telemetry
from repro.core import ExecutionReconstructor, ProductionSite
from repro.core import production, reconstructor
from repro.errors import ReconstructionError
from repro.interp.env import Environment
from repro.ir.builder import ModuleBuilder
from repro.solver import evaluator, solver
from repro.solver import terms as T
from repro.workloads import get_workload, workload_names
from tests.interp.reference_interpreter import ReferenceInterpreter
from tests.solver import reference_solver
from tests.symex.reference_gap_search import Lockstep


def _report_fingerprint(report):
    """Everything that should be identical across reruns (no wall times)."""
    return {
        "success": report.success,
        "verified": report.verified,
        "occurrences": report.occurrences,
        "unrelated": report.unrelated_occurrences,
        "statuses": [it.status for it in report.iterations],
        "recorded": [[(str(i.point), i.register, i.size)
                      for i in it.recorded_items]
                     for it in report.iterations],
        "streams": (sorted(report.test_case.streams.items())
                    if report.test_case else None),
    }


def _two_bug_module():
    """Reads x, y; x == 255 hits one bug, the x/y table-alias pattern
    hits another (which stalls under a small work limit)."""
    b = ModuleBuilder("two-bugs")
    b.global_("V", 256)
    f = b.function("main", [])
    f.block("entry")
    f.input("stdin", 1, dest="%x")
    f.input("stdin", 1, dest="%y")
    c = f.cmp("eq", "%x", 255, width=8)
    f.br(c, "other", "table")
    f.block("other")
    f.abort("other bug")
    f.block("table")
    f.global_addr("V", dest="%V")
    p = f.gep("%V", "%x", 1)
    f.store(p, 7, 1)
    q = f.gep("%V", "%y", 1)
    f.load(q, 1, dest="%v")
    c2 = f.cmp("eq", "%v", 7, width=8)
    f.br(c2, "boom", "ok")
    f.block("boom")
    f.abort("aliased")
    f.block("ok")
    f.ret(0)
    return b.build()


class TestDeterminism:
    def test_back_to_back_runs_identical(self, table_module):
        def run():
            er = ExecutionReconstructor(table_module, work_limit=150)
            return er.reconstruct(ProductionSite(
                lambda occ: Environment({"stdin": bytes([9, 9])})))

        assert _report_fingerprint(run()) == _report_fingerprint(run())

    def test_concurrent_runs_match_serial(self, abort_module, table_module):
        """Two reconstructions in parallel threads must each behave
        exactly as they do alone — term spaces and solver caches are
        per-session, not process-global."""
        jobs = {
            "abort": (abort_module, b"\xc8", 300_000),
            "table": (table_module, bytes([9, 9]), 150),
        }

        def run(name):
            module, data, work_limit = jobs[name]
            er = ExecutionReconstructor(module, work_limit=work_limit)
            return _report_fingerprint(er.reconstruct(ProductionSite(
                lambda occ: Environment({"stdin": data}))))

        serial = {name: run(name) for name in jobs}
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {name: pool.submit(run, name) for name in jobs}
            concurrent = {name: f.result() for name, f in futures.items()}
        assert concurrent == serial
        assert all(r["success"] for r in serial.values())


class TestWorkloadDeterminism:
    """On every Table-1 workload the sequential loop's outcome is a pure
    function of the workload: back-to-back reconstructions agree on each
    iteration's work, not just on the final test case."""

    @staticmethod
    def _run(name):
        workload = get_workload(name)
        er = ExecutionReconstructor(workload.module(),
                                    work_limit=workload.work_limit,
                                    max_occurrences=workload.max_occurrences)
        return er.reconstruct(ProductionSite(workload.failing_env))

    @staticmethod
    def _fingerprint(report):
        fingerprint = _report_fingerprint(report)
        fingerprint["work"] = [
            (it.instr_count, it.trace_bytes, it.solver_calls,
             it.symex_modelled_seconds, it.recording_cost, it.stall_point)
            for it in report.iterations]
        return fingerprint

    @pytest.mark.parametrize("name", workload_names())
    def test_back_to_back_runs_identical(self, name):
        first = self._run(name)
        assert first.success and first.verified
        assert self._fingerprint(self._run(name)) == self._fingerprint(first)

    @pytest.mark.parametrize("name", workload_names())
    def test_walker_only_run_identical(self, name, monkeypatch):
        """Compiled evaluation and the solver's replays change wall time
        only.  With the compile step declining every term, every model
        probe evaluating every constraint and the search re-evaluating
        every constraint after propagation, every query runs the walker
        and must charge the same work, so stalls, modelled seconds,
        recordings and the test case stay the same."""
        compiled = self._run(name)
        assert compiled.success and compiled.verified
        monkeypatch.setattr(evaluator, "_compile",
                            lambda term: evaluator._DECLINED)
        monkeypatch.setattr(solver.Solver, "_probe_models",
                            reference_solver.probe_models)
        monkeypatch.setattr(solver._Search, "_active_constraints",
                            reference_solver.active_constraints)
        # the only terms shared across term spaces: drop any compiled
        # form they picked up earlier in this process
        for singleton in (T.TRUE, T.FALSE):
            monkeypatch.setattr(singleton, "_compiled", None)
        walked = self._run(name)
        assert self._fingerprint(walked) == self._fingerprint(compiled)

    @pytest.mark.parametrize("name", workload_names())
    def test_reference_interpreter_run_identical(self, name, monkeypatch):
        """Compiled blocks change wall time only.  With the
        per-instruction reference loop running every production run and
        replay, each iteration's instruction count, trace bytes, solver
        work and stall point stay the same, and so do the recordings and
        the test case."""
        compiled = self._run(name)
        assert compiled.success and compiled.verified
        runs = []

        class Reference(ReferenceInterpreter):
            def run(self, args=()):
                runs.append(1)
                return super().run(args)

        for module in (production, reconstructor):
            monkeypatch.setattr(module, "Interpreter", Reference)
        stepped = self._run(name)
        # every traced occurrence plus the verifying replay
        assert len(runs) >= stepped.occurrences + 1
        assert self._fingerprint(stepped) == self._fingerprint(compiled)
        assert stepped.total_recorded_bytes == compiled.total_recorded_bytes

    @classmethod
    def _run_lossy(cls, name):
        """The benchmark's lossy-trace reconstruction (8.5 % lost TNT
        bits, per-CPU merge): its fingerprint, or the error it raised."""
        workload = get_workload(name)
        er = ExecutionReconstructor(workload.module(),
                                    work_limit=workload.work_limit,
                                    max_occurrences=workload.max_occurrences,
                                    trace_recovery=True)
        site = ProductionSite(workload.failing_env, mapping_loss=0.085,
                              per_cpu_buffers=True)
        try:
            report = er.reconstruct(site)
        except ReconstructionError as exc:
            return str(exc)
        return dict(cls._fingerprint(report),
                    recorded_bytes=report.total_recorded_bytes)

    @pytest.mark.parametrize("name", workload_names())
    def test_reference_gap_search_identical(self, name, monkeypatch):
        """Checkpointed gap search and chunk-order skipping change wall
        time only.  With the replay-from-chunk-0 driver recovering the
        same lossy traces, each iteration's status, solver calls,
        modelled seconds, stall point and recordings stay the same, and
        so do the occurrences, recorded bytes and the test case (or the
        error: pbzip2-uaf's interleaving is never recovered).  On the
        way, every driver call is checked against the checkpointed
        driver's on a shadow cache: result, stats and cache state."""
        checkpointed = self._run_lossy(name)
        lockstep = Lockstep()
        monkeypatch.setattr(reconstructor, "_recovering_driver", lockstep)
        assert self._run_lossy(name) == checkpointed
        assert lockstep.calls >= 1
        if name == "pbzip2-uaf":
            assert checkpointed.endswith(
                "concrete branch disagrees with trace at main:wait:2 "
                "(after 1 gap assignments)")
        else:
            assert checkpointed["success"] and checkpointed["verified"]


class TestUnrelatedBudget:
    def test_unrelated_failures_do_not_consume_budget(self):
        module = _two_bug_module()

        # this needs three occurrences of the table bug (stall, stall,
        # complete) and sees an unrelated bug after the first — with
        # max_occurrences=3 it only succeeds if the unrelated failure
        # costs nothing
        def factory(occ):
            data = b"\xff\x00" if occ == 2 else bytes([9, 9])
            return Environment({"stdin": data})

        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            er = ExecutionReconstructor(module, work_limit=100,
                                        max_occurrences=3)
            report = er.reconstruct(ProductionSite(factory))
        assert report.success
        assert report.unrelated_occurrences == 1
        assert report.occurrences == 3
        assert registry.counter(
            "reconstruct.unrelated_failures").value == 1
        assert report.to_dict()["unrelated_occurrences"] == 1

    def test_gives_up_when_failure_stops_reoccurring(self):
        module = _two_bug_module()

        # after the first (stalling) occurrence, only the other bug ever
        # fires: the reconstructor must give up at its unrelated bound
        # instead of waiting forever
        def factory(occ):
            data = bytes([9, 9]) if occ == 1 else b"\xff\x00"
            return Environment({"stdin": data})

        er = ExecutionReconstructor(module, work_limit=10,
                                    max_occurrences=5,
                                    max_unrelated_occurrences=3)
        report = er.reconstruct(ProductionSite(factory))
        assert not report.success
        assert report.unrelated_occurrences == 3
        assert report.occurrences == 1    # only the real one counted
        assert "unrelated failures observed: 3" in report.summary()


class TestUnrelatedWaitAccounting:
    def test_unrelated_occurrence_records_wait_seconds(self):
        # the unrelated failure's production wait must land in the
        # dropped-phase histogram
        def factory(occ):
            data = b"\xff\x00" if occ == 2 else bytes([9, 9])
            return Environment({"stdin": data})

        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            er = ExecutionReconstructor(_two_bug_module(),
                                        work_limit=100,
                                        max_occurrences=3)
            report = er.reconstruct(ProductionSite(factory))
        assert report.success
        assert report.unrelated_occurrences == 1
        snap = registry.snapshot()
        hist = snap["histograms"].get("reconstruct.unrelated_wait_seconds")
        assert hist is not None and hist["count"] == 1
        assert hist["sum"] >= 0.0
