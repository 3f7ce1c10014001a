"""End-to-end reconstruction of every Table-1 workload.

This is the repository's headline integration test: each of the 13 bugs
must be reproduced by the full iterative loop with a replay-verified
test case, within its configured occurrence budget.
"""

import pytest

from repro.core import ExecutionReconstructor, ProductionSite
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.workloads import all_workloads

WORKLOADS = all_workloads()
IDS = [w.name for w in WORKLOADS]


def reconstruct(workload):
    er = ExecutionReconstructor(workload.module(),
                                work_limit=workload.work_limit,
                                max_occurrences=workload.max_occurrences)
    return er.reconstruct(ProductionSite(workload.failing_env))


@pytest.fixture(scope="module")
def reports():
    return {w.name: reconstruct(w) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
class TestReconstruction:
    def test_reproduced_and_verified(self, workload, reports):
        report = reports[workload.name]
        assert report.success and report.verified

    def test_occurrences_in_paper_ballpark(self, workload, reports):
        report = reports[workload.name]
        assert 1 <= report.occurrences <= 8

    def test_single_occurrence_bugs(self, workload, reports):
        """libpng and bash reproduce from one occurrence (paper: same)."""
        report = reports[workload.name]
        if workload.name in ("libpng-2004-0597", "bash-108885"):
            assert report.occurrences == 1

    def test_generated_input_replays_on_pristine_module(self, workload,
                                                        reports):
        """The test case must also fail on the *uninstrumented* program."""
        report = reports[workload.name]
        env = Environment(dict(report.test_case.streams),
                          quantum=report.test_case.quantum)
        result = Interpreter(workload.module(), env).run()
        assert result.failure is not None
        assert result.failure.kind == workload.expected_kind

    def test_iterations_recorded(self, workload, reports):
        report = reports[workload.name]
        assert len(report.iterations) == report.occurrences
        stalls = [i for i in report.iterations if i.status == "stalled"]
        for stall in stalls:
            assert stall.recorded_items


def test_mean_occurrences_near_paper(reports):
    mean = sum(r.occurrences for r in reports.values()) / len(reports)
    assert 1.5 <= mean <= 5.0  # paper: ~3.5


def test_exactly_two_single_occurrence(reports):
    singles = sum(1 for r in reports.values() if r.occurrences == 1)
    assert singles == 2  # paper: 2 (libpng, bash)
