"""Benchmark: the §2.4 use-case pipeline — forensics + seeded fuzzing."""

import pytest

from repro.core import ExecutionReconstructor, ProductionSite
from repro.evaluation.formatting import render_table
from repro.usecases import CoverageFuzzer
from repro.workloads import get_workload

TARGETS = [("libpng-2004-0597", "png"), ("matrixssl-2014-1569", "tls"),
           ("objdump-2018-6323", "obj")]


@pytest.mark.benchmark(group="usecases")
def test_seeded_fuzzing(benchmark, save_artifact):
    def run():
        rows = []
        for name, stream in TARGETS:
            workload = get_workload(name)
            er = ExecutionReconstructor(workload.module(),
                                        work_limit=workload.work_limit,
                                        max_occurrences=workload
                                        .max_occurrences)
            report = er.reconstruct(ProductionSite(workload.failing_env))
            seeded = CoverageFuzzer(workload.module(), stream,
                                    seed=7)
            seeded.add_seed(report.test_case.streams[stream])
            s = seeded.run(budget=200)
            blind = CoverageFuzzer(workload.module(), stream,
                                   seed=7)
            b = blind.run(budget=200)
            rows.append((name, s.coverage_points, s.crash_count,
                         s.first_crash_at, b.coverage_points,
                         b.crash_count))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        ["Failure", "seeded cov", "seeded crashes", "first crash",
         "blind cov", "blind crashes"],
        [list(r) for r in rows],
        "Use case — fuzzing seeded with ER test cases vs from scratch "
        "(200 executions)")
    save_artifact("usecase_fuzzing", table)
    for name, s_cov, s_crashes, first, b_cov, b_crashes in rows:
        assert s_crashes >= 1 and first == 1
        assert s_cov >= b_cov
