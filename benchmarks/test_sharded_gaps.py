"""Benchmark: sharded gap-recovery search vs the serial DFS.

Degrades a gap-heavy Table-1 trace (the paper's 8.5 % TNT loss), runs
the decision-vector search once serially and once over a worker pool,
and records the speedup plus the cold→warm persistent solver-cache hit
rates to ``benchmarks/out/BENCH_sharded_gaps.json`` — the artifact the
CI smoke job uploads next to ``BENCH_parallel.json``.  As with the
batch benchmark, the speedup assertion only arms on multi-core
machines; a single CPU records the run as informational.
"""

import json
import os
import time

import pytest

from repro import telemetry
from repro.core import ProductionSite
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.ir.builder import ModuleBuilder
from repro.parallel import run_batch
from repro.symex.gaps import replay_with_gap_recovery
from repro.trace.decoder import decode
from repro.trace.degrade import degrade_trace, gap_count
from repro.trace.encoder import PTEncoder
from repro.trace.ringbuffer import RingBuffer
from repro.workloads import get_workload

#: deepest decision-vector search among the Table-1 workloads at the
#: paper's loss rate — enough replays to amortize the pool start-up
WORKLOAD = "sqlite-7be932d"
MAPPING_LOSS = 0.085
SHARDS = 4


def test_sharded_gap_speedup(artifact_dir, tmp_path):
    workload = get_workload(WORKLOAD)
    module = workload.fresh_module()
    occurrence = ProductionSite(workload.failing_env,
                                mapping_loss=MAPPING_LOSS,
                                per_cpu_buffers=True).run_once(module)
    kwargs = dict(work_limit=workload.work_limit * 20)

    start = time.perf_counter()
    serial = replay_with_gap_recovery(module, occurrence.trace,
                                      occurrence.failure, **kwargs)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    sharded = replay_with_gap_recovery(module, occurrence.trace,
                                       occurrence.failure, shards=SHARDS,
                                       **kwargs)
    sharded_s = time.perf_counter() - start

    # correctness before speed: identical outcome, bit for bit
    assert sharded.status == serial.status
    serial_model = serial.model.assignment if serial.model else None
    sharded_model = sharded.model.assignment if sharded.model else None
    assert sharded_model == serial_model
    speedup = serial_s / sharded_s if sharded_s else 0.0

    # cold→warm persistent cache: the second run must hit the disk tier
    cache_dir = tmp_path / "solver-cache"
    cache_dir.mkdir()
    cold = run_batch([WORKLOAD], parallel=1, cache_dir=str(cache_dir))
    warm = run_batch([WORKLOAD], parallel=1, cache_dir=str(cache_dir))
    assert cold.succeeded == warm.succeeded == 1
    assert warm.solver_cache_stats["hit_rate"] > \
        cold.solver_cache_stats["hit_rate"]

    data = {
        "workload": WORKLOAD,
        "mapping_loss": MAPPING_LOSS,
        "gap_count": gap_count(occurrence.trace),
        "gap_attempts": serial.gap_attempts,
        "shards": SHARDS,
        "cpu_count": os.cpu_count(),
        "serial_wall_seconds": round(serial_s, 4),
        "sharded_wall_seconds": round(sharded_s, 4),
        "speedup": round(speedup, 3),
        "status": serial.status,
        "cold_cache": cold.solver_cache_stats,
        "warm_cache": warm.solver_cache_stats,
    }
    (artifact_dir / "BENCH_sharded_gaps.json").write_text(
        json.dumps(data, indent=2) + "\n")
    print(f"\nserial {serial_s:.2f}s, sharded({SHARDS}) {sharded_s:.2f}s, "
          f"speedup {speedup:.2f}x on {os.cpu_count()} cpu(s); "
          f"cache hit rate {cold.solver_cache_stats['hit_rate']:.1%} cold "
          f"-> {warm.solver_cache_stats['hit_rate']:.1%} warm")

    if (os.cpu_count() or 1) >= 2:
        assert speedup >= 1.5, (
            f"expected >=1.5x on a multi-core host, got {speedup:.2f}x")
    else:
        pytest.skip(f"single CPU: speedup {speedup:.2f}x recorded, "
                    "not asserted")


# -- skewed subspaces: stealing rebalances what a fixed split cannot

#: forced-True guard decisions: any False guard hits a PTW tag the trace
#: never recorded, so that whole prefix subspace dies on its first replay
GUARDS = 6
#: late-diverging tail decisions: both arms are instruction-identical, so
#: a wrong tail bit is only caught at the final PTW pin — after the
#: expensive concrete loop has been replayed in full
TAIL = 8
#: concrete-loop iterations: the per-replay cost a scheduler must balance
WORK_ITERS = 250
SKEW_SHARDS = 4


def _skewed_module():
    """A program whose gap-decision space is maximally skewed.

    Six guard branches test bits of the first input byte (0x3f in
    production: all True); the False arm executes a ``ptwrite`` with a
    tag the trace never contains, so every subspace fixing any guard to
    False diverges immediately.  A concrete loop then makes each full
    replay expensive, and eight tail branches (bits of the second input
    byte, 0x00 in production: all False) accumulate into a value pinned
    by the final ``ptwrite`` — wrong tail bits replay everything before
    diverging.  The serial DFS (True-first) therefore explores the whole
    2^TAIL tail space under the single all-True guard prefix: a fixed
    prefix split would park all of that work in one task, while
    stealing redistributes it at checkpoint granularity.
    """
    b = ModuleBuilder("skewed-gaps")
    f = b.function("main", [])
    f.block("entry")
    f.input("stdin", 1, dest="%x")
    f.input("stdin", 1, dest="%y")
    f.const(0, dest="%acc")
    f.jmp("g0")
    for i in range(GUARDS):
        nxt = f"g{i + 1}" if i + 1 < GUARDS else "work"
        f.block(f"g{i}")
        bit = f.binop("and", f.binop("lshr", "%x", i, width=8), 1,
                      width=8)
        cond = f.cmp("ne", bit, 0, width=8)
        f.br(cond, f"g{i}_ok", f"g{i}_bad")
        f.block(f"g{i}_bad")
        f.ptwrite(0, tag=10 + i)  # tag absent from the trace
        f.jmp(nxt)
        f.block(f"g{i}_ok")
        f.jmp(nxt)
    f.block("work")
    f.const(0, dest="%i")
    f.const(0, dest="%h")
    f.jmp("w_loop")
    f.block("w_loop")
    done = f.cmp("uge", "%i", WORK_ITERS)
    f.br(done, "t0", "w_body")
    f.block("w_body")
    f.add("%h", 7, width=32, dest="%h")
    f.mul("%h", 3, width=32, dest="%h")
    f.add("%i", 1, dest="%i")
    f.jmp("w_loop")
    for i in range(TAIL):
        nxt = f"t{i + 1}" if i + 1 < TAIL else "pin"
        f.block(f"t{i}")
        bit = f.binop("and", f.binop("lshr", "%y", i, width=8), 1,
                      width=8)
        cond = f.cmp("ne", bit, 0, width=8)
        f.br(cond, f"t{i}_on", f"t{i}_off")
        f.block(f"t{i}_on")      # instruction-identical arms: the
        f.add("%acc", 1 << i, width=32, dest="%acc")
        f.jmp(nxt)
        f.block(f"t{i}_off")     # divergence only shows at the pin
        f.add("%acc", 0, width=32, dest="%acc")
        f.jmp(nxt)
    f.block("pin")
    f.ptwrite("%acc", tag=0)
    f.abort("skewed tail reached")
    return b.build()


def test_steal_rebalances_skewed_subspaces(artifact_dir):
    module = _skewed_module()
    encoder = PTEncoder(RingBuffer())
    run = Interpreter(module,
                      Environment({"stdin": bytes([0x3f, 0x00])}),
                      tracer=encoder).run()
    assert run.failure is not None
    degraded = degrade_trace(decode(encoder.buffer), loss=1.0)
    kwargs = dict(max_attempts=1024)

    start = time.perf_counter()
    serial = replay_with_gap_recovery(module, degraded, run.failure,
                                      **kwargs)
    serial_s = time.perf_counter() - start
    registry = telemetry.Telemetry()
    start = time.perf_counter()
    with telemetry.scoped(registry):
        stolen = replay_with_gap_recovery(module, degraded, run.failure,
                                          shards=SKEW_SHARDS, **kwargs)
    steal_s = time.perf_counter() - start
    counters = registry.snapshot()["counters"]

    # correctness before speed: both walks commit the same leaf
    assert serial.completed
    assert stolen.status == serial.status
    assert stolen.model.assignment == serial.model.assignment

    steal_vs_serial = serial_s / steal_s if steal_s else 0.0
    data = {
        "guards": GUARDS,
        "tail": TAIL,
        "work_iters": WORK_ITERS,
        "gap_count": gap_count(degraded),
        "serial_gap_attempts": serial.gap_attempts,
        "shards": SKEW_SHARDS,
        "cpu_count": os.cpu_count(),
        "serial_wall_seconds": round(serial_s, 4),
        "steal_wall_seconds": round(steal_s, 4),
        "steal_vs_serial_speedup": round(steal_vs_serial, 3),
        "steals": counters.get("parallel.steals", 0),
        "cancelled_shards": counters.get("parallel.cancelled_shards", 0),
    }
    (artifact_dir / "BENCH_steal_skew.json").write_text(
        json.dumps(data, indent=2) + "\n")
    print(f"\nskew: serial {serial_s:.2f}s, steal {steal_s:.2f}s "
          f"({steal_vs_serial:.2f}x vs serial, {data['steals']} steals) "
          f"on {os.cpu_count()} cpu(s)")

    if (os.cpu_count() or 1) >= 2:
        assert steal_s < serial_s, (
            "expected stealing to beat the serial search on a "
            f"multi-core host, got {steal_vs_serial:.2f}x")
    else:
        pytest.skip(f"single CPU: {steal_vs_serial:.2f}x recorded, "
                    "not asserted")
