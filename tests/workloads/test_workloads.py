"""The Table-1 workload suite: failure/benign behaviour and metadata."""

import pytest

from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.ir.verifier import verify_module
from repro.workloads import all_workloads, get_workload, workload_names

WORKLOADS = all_workloads()
IDS = [w.name for w in WORKLOADS]


class TestRegistry:
    def test_thirteen_workloads(self):
        assert len(WORKLOADS) == 13

    def test_names_match_table1_order(self):
        assert workload_names()[0] == "php-2012-2386"
        assert workload_names()[-1] == "pbzip2-uaf"

    def test_get_workload(self):
        assert get_workload("bash-108885").app.startswith("Bash")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_three_multithreaded(self):
        assert sum(w.multithreaded for w in WORKLOADS) == 3

    def test_paper_metadata_present(self):
        for w in WORKLOADS:
            assert w.paper_occurrences >= 1
            assert w.paper_instrs > 0
            assert w.bug_type and w.app and w.bench_name


@pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
class TestPerWorkload:
    def test_module_verifies(self, workload):
        verify_module(workload.module())

    def test_failing_env_fails_with_expected_kind(self, workload):
        result = Interpreter(workload.module(),
                             workload.failing_env(1)).run()
        assert result.failure is not None
        assert result.failure.kind == workload.expected_kind

    def test_failure_reoccurs_across_occurrences(self, workload):
        signatures = []
        for occ in range(1, 5):
            result = Interpreter(workload.module(),
                                 workload.failing_env(occ)).run()
            assert result.failure is not None
            signatures.append(result.failure)
        assert all(signatures[0].matches(s) for s in signatures[1:])

    def test_benign_envs_never_fail(self, workload):
        for seed in range(6):
            result = Interpreter(workload.module(),
                                 workload.benign_env(seed)).run()
            assert result.failure is None, (seed, result.failure)

    def test_benign_runs_do_real_work(self, workload):
        result = Interpreter(workload.module(),
                             workload.benign_env(0)).run()
        assert result.instr_count > 1000

    def test_deterministic_failing_run(self, workload):
        a = Interpreter(workload.module(), workload.failing_env(1)).run()
        b = Interpreter(workload.module(), workload.failing_env(1)).run()
        assert a.instr_count == b.instr_count
        assert a.failure.point == b.failure.point

    def test_module_cached_and_cloned(self, workload):
        # a built module is never changed, so the old "fresh" copy is
        # the cached module itself
        assert workload.module() is workload.module()
        assert workload.fresh_module() is workload.module()
