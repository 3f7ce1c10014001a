"""Benchmark: the persistent worker pool.

Folded into ``benchmarks/out/BENCH_parallel.json`` under the
``"pipeline"`` key (the artifact the CI smoke job uploads):

* **Pool amortization** — two consecutive batches over the shared
  :class:`~repro.parallel.WorkerPool` must pay at most one worker
  spin-up total (the second batch is a generation refresh, not a
  respawn), versus one spin-up *per batch* with per-batch private
  pools.  The recorded ``spinup_reduction`` is the overhead the
  persistent pool removes.
"""

import json

from repro.parallel import close_pool, get_pool, private_pool, run_batch

#: enough work to exercise several reconstruction iterations each
WORKLOADS = ["php-2012-2386", "sqlite-7be932d"]
POOL_WIDTH = 2


def test_pool_amortization(artifact_dir):
    # shared pool, two batches, one spin-up
    close_pool()
    try:
        for _ in range(2):
            run_batch(WORKLOADS, parallel=POOL_WIDTH)
        shared_pool = get_pool(POOL_WIDTH)
        shared_total, shared_jobs = shared_pool.spinups, shared_pool.jobs
    finally:
        close_pool()
    assert shared_jobs == 2
    assert shared_total <= 1, (
        f"expected the second batch to reuse the pool, "
        f"saw {shared_total} spin-ups over {shared_jobs} jobs")

    # baseline: a private pool per batch pays a spin-up every time
    private_spinups = 0
    for _ in range(2):
        with private_pool(POOL_WIDTH) as pool:
            run_batch(WORKLOADS, parallel=POOL_WIDTH, pool=pool)
            private_spinups += pool.spinups
    assert private_spinups == 2

    block = {
        "workloads": WORKLOADS,
        "pool": {
            "width": POOL_WIDTH,
            "shared_batches": 2,
            "shared_spinups": shared_total,
            "shared_jobs": shared_jobs,
            "private_spinups": private_spinups,
            "spinup_reduction": private_spinups - shared_total,
        },
    }

    # fold into the batch benchmark's artifact (whichever ran first)
    path = artifact_dir / "BENCH_parallel.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data["pipeline"] = block
    path.write_text(json.dumps(data, indent=2) + "\n")
    print(f"\npool: {shared_total} spin-up(s) over {shared_jobs} shared "
          f"jobs vs {private_spinups} private")
