"""Benchmark: fleet-mode serve scalability (``BENCH_serve.json``).

The claim behind ``repro serve``: with N production instances running
each deployed version, the reconstruction's wait for the next failure
reoccurrence ends at the *first* fleet-wide report, so the accumulated
wait shrinks as the fleet grows — while the reconstruction itself
stays byte-identical to the single-site path (every instance runs
every version exactly once, so any instance's occurrence is the same
occurrence).

The recorded matrix runs one multi-iteration workload at fleet sizes
1 → 2 → 4 under a simulated reoccurrence delay and asserts both
halves: monotone wait shrinkage and identical outcomes.  Waits are
virtual seconds from the fleet's clock and the per-(instance, version)
delay jitter, so every figure in the artifact except ``wall_seconds``
repeats exactly from run to run.
"""

import json

from repro.core import ExecutionReconstructor, ProductionSite
from repro.serve import FleetService
from repro.workloads.registry import get_workload

#: needs several key-value iterations so the fleet races more than one
#: reoccurrence wait (pbzip2 converges in 4 occurrences)
WORKLOAD = "pbzip2-uaf"
FLEET_SIZES = [1, 2, 4]
#: simulated mean delay between failure reoccurrences, in virtual
#: seconds; jittered 0.5-1.5x per (instance, version) — §3.3's
#: minutes-to-hours wait, scaled down
REOCCURRENCE_DELAY = 0.3


def test_serve_scalability(artifact_dir):
    workload = get_workload(WORKLOAD)
    single = ExecutionReconstructor(
        workload.module(), work_limit=workload.work_limit,
        max_occurrences=workload.max_occurrences).reconstruct(
        ProductionSite(workload.failing_env))
    assert single.success
    expected_streams = {name: data.hex() for name, data
                        in sorted(single.test_case.streams.items())}

    legs = []
    for instances in FLEET_SIZES:
        summary = FleetService(
            [WORKLOAD], instances=instances,
            reoccurrence_delay=REOCCURRENCE_DELAY).run()
        assert summary.succeeded, summary.unserviced
        bucket = summary.buckets[0]
        # byte-identity: the fleet converges to the single-site answer
        # at every fleet size
        assert bucket.streams == expected_streams, (
            f"fleet({instances}) diverged from the single-site "
            f"reconstruction")
        assert bucket.iterations == len(single.iterations)
        # every instance runs every deployed version exactly once
        assert summary.instance_runs == instances * bucket.iterations
        legs.append({
            "instances": instances,
            "wait_seconds": bucket.wait_seconds,
            "wall_seconds": summary.wall_seconds,
            "occurrences_consumed": bucket.occurrences_consumed,
            "reports": bucket.reports,
            "deduplicated": bucket.deduplicated + bucket.stale,
            "instance_runs": summary.instance_runs,
            "iterations": bucket.iterations,
        })

    # the headline effect: accumulated reoccurrence wait shrinks
    # strictly as the fleet grows (deterministic delay jitter)
    waits = [leg["wait_seconds"] for leg in legs]
    assert waits[0] > waits[1] > waits[2], (
        f"fleet-wide wait did not shrink with instance count: {waits}")
    # consumed occurrences stay constant — dedup absorbs the extra
    # reports instead of burning reconstruction budget
    consumed = {leg["occurrences_consumed"] for leg in legs}
    assert len(consumed) == 1

    summary_doc = {
        "workload": WORKLOAD,
        "reoccurrence_delay": REOCCURRENCE_DELAY,
        "single_site_iterations": len(single.iterations),
        "byte_identical": True,
        "legs": legs,
        "wait_reduction": round(1 - waits[-1] / waits[0], 4),
    }
    path = artifact_dir / "BENCH_serve.json"
    path.write_text(json.dumps(summary_doc, indent=2) + "\n")
    print(f"\nfleet wait {waits[0]:.2f}s -> {waits[-1]:.2f}s "
          f"({summary_doc['wait_reduction']:.0%} reduction over "
          f"{FLEET_SIZES[0]} -> {FLEET_SIZES[-1]} instances); "
          f"wrote {path}")
