"""Benchmark: ddmin shrinkage of generated test cases (extension).

Not a paper experiment — the paper cites Zeller's input simplification
as related work; this measures how much of each generated test case the
failure actually needs.
"""

import pytest

from repro.core import ExecutionReconstructor, ProductionSite
from repro.core.minimize import minimize_test_case
from repro.evaluation.formatting import render_table
from repro.workloads import get_workload

#: fast single-stream workloads where minimization is meaningful
TARGETS = ["matrixssl-2014-1569", "nasm-2004-1287", "bash-108885",
           "objdump-2018-6323", "php-2012-2386"]


@pytest.mark.benchmark(group="minimize")
def test_testcase_minimization(benchmark, save_artifact):
    def run():
        rows = []
        for name in TARGETS:
            workload = get_workload(name)
            er = ExecutionReconstructor(workload.module(),
                                        work_limit=workload.work_limit,
                                        max_occurrences=workload
                                        .max_occurrences)
            report = er.reconstruct(ProductionSite(workload.failing_env))
            original = sum(len(d) for d in
                           report.test_case.streams.values())
            minimized = minimize_test_case(
                workload.module(), report.test_case, report.failure)
            shrunk = sum(len(d) for d in minimized.streams.values())
            rows.append((name, original, shrunk))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        ["Failure", "generated bytes", "minimized bytes"],
        [[n, o, s] for n, o, s in rows],
        "Extension — ddmin on ER-generated test cases")
    save_artifact("minimization", table)
    for _name, original, shrunk in rows:
        assert shrunk <= original
    assert any(shrunk < original for _n, original, shrunk in rows)
