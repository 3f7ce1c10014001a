"""End-to-end reconstruction through a degraded trace pipeline.

Combines the §4 mapping loss (8.5 % of TNT bits become gaps) with §3.4
per-CPU buffer merging (equal-timestamp chunk order lost) and runs the
full iterative loop with trace recovery enabled.
"""

import pytest

from repro import telemetry
from repro.core import ExecutionReconstructor, ProductionSite
from repro.trace.degrade import gap_count
from repro.workloads import get_workload

PIPELINE_TARGETS = ["bash-108885", "libpng-2004-0597",
                    "objdump-2018-6323", "python-2018-1000030",
                    "memcached-2019-11596"]


@pytest.mark.parametrize("name", PIPELINE_TARGETS)
def test_reconstruction_with_degraded_traces(name):
    workload = get_workload(name)
    er = ExecutionReconstructor(workload.module(),
                                work_limit=workload.work_limit * 20,
                                max_occurrences=15,
                                trace_recovery=True)
    site = ProductionSite(workload.failing_env, mapping_loss=0.085,
                          per_cpu_buffers=True)
    report = er.reconstruct(site)
    assert report.success and report.verified


#: occurrences the layer benchmark's lossy-trace reconstruction takes at
#: seed 0: the workload's own work limit (the 30-s timeout analog) and
#: occurrence budget, every sibling gap attempt solved from scratch
LOSSY_OCCURRENCES = {"objdump-2018-6323": 4, "sqlite-787fa71": 4,
                     "sqlite-7be932d": 4}


@pytest.mark.parametrize("name", sorted(LOSSY_OCCURRENCES))
def test_lossy_reconstruction_on_the_calibrated_budget(name):
    workload = get_workload(name)
    registry = telemetry.Telemetry()
    with telemetry.scoped(registry):
        er = ExecutionReconstructor(workload.module(),
                                    work_limit=workload.work_limit,
                                    max_occurrences=workload.max_occurrences,
                                    trace_recovery=True)
        site = ProductionSite(workload.failing_env, mapping_loss=0.085,
                              per_cpu_buffers=True)
        report = er.reconstruct(site)
    assert report.success and report.verified
    assert report.occurrences == LOSSY_OCCURRENCES[name]
    counters = registry.snapshot()["counters"]
    assert not [counter for counter in counters
                if counter.startswith("solver.incremental.")]


def test_degradation_actually_happens():
    workload = get_workload("libpng-2004-0597")
    site = ProductionSite(workload.failing_env, mapping_loss=0.5)
    occurrence = site.run_once(workload.module())
    assert gap_count(occurrence.trace) > 50


def test_exact_pipeline_unaffected_by_recovery_driver():
    workload = get_workload("bash-108885")
    er = ExecutionReconstructor(workload.module(),
                                work_limit=workload.work_limit,
                                trace_recovery=True)
    report = er.reconstruct(ProductionSite(workload.failing_env))
    assert report.success and report.occurrences == 1


def test_exact_driver_cannot_handle_gaps():
    """Without recovery, a degraded trace is a hard error (documented)."""
    from repro.errors import ReconstructionError

    workload = get_workload("bash-108885")
    er = ExecutionReconstructor(workload.module(),
                                work_limit=workload.work_limit,
                                max_occurrences=3,
                                trace_recovery=False)
    site = ProductionSite(workload.failing_env, mapping_loss=1.0)
    with pytest.raises(ReconstructionError):
        er.reconstruct(site)
