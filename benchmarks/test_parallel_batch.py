"""Benchmark: parallel batch reconstruction vs the serial baseline.

Runs the heavier Table-1 workloads through ``repro.parallel.run_batch``
once serially and once over a process pool, and records the speedup and
solver-cache traffic to ``benchmarks/out/BENCH_parallel.json`` — the
same summary ``repro bench`` emits, and the artifact the CI smoke job
uploads.  The speedup assertion only arms on multi-core machines: on a
single CPU the pool can't beat the serial loop and the run is recorded
as informational.
"""

import json
import os

import pytest

from repro.parallel import run_batch

#: the longest-running Table-1 workloads — enough serial work that the
#: pool's fork/pickle overhead is amortized
WORKLOADS = [
    "php-2012-2386",
    "php-74194",
    "sqlite-7be932d",
    "sqlite-787fa71",
    "sqlite-4e8e485",
    "nasm-2004-1287",
]

POOL_WIDTH = 2


def test_parallel_speedup(artifact_dir):
    serial = run_batch(WORKLOADS, parallel=1)
    parallel = run_batch(WORKLOADS, parallel=POOL_WIDTH)

    assert serial.succeeded == len(WORKLOADS)
    assert parallel.succeeded == len(WORKLOADS)
    speedup = (serial.wall_seconds / parallel.wall_seconds
               if parallel.wall_seconds else 0.0)

    data = {
        "workloads": WORKLOADS,
        "parallelism": POOL_WIDTH,
        "cpu_count": os.cpu_count(),
        "serial_wall_seconds": round(serial.wall_seconds, 4),
        "parallel_wall_seconds": round(parallel.wall_seconds, 4),
        "speedup": round(speedup, 3),
        "solver_cache": parallel.solver_cache_stats,
        "serial": serial.to_dict(),
        "parallel": parallel.to_dict(),
    }
    (artifact_dir / "BENCH_parallel.json").write_text(
        json.dumps(data, indent=2) + "\n")
    print(f"\nserial {serial.wall_seconds:.2f}s, "
          f"parallel({POOL_WIDTH}) {parallel.wall_seconds:.2f}s, "
          f"speedup {speedup:.2f}x on {os.cpu_count()} cpu(s)")

    if (os.cpu_count() or 1) >= 2:
        assert speedup >= 1.5, (
            f"expected >=1.5x on a multi-core host, got {speedup:.2f}x")
    else:
        pytest.skip(f"single CPU: speedup {speedup:.2f}x recorded, "
                    "not asserted")
