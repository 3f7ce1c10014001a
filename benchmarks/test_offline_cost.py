"""Benchmark: §5.3 offline costs — graph size, selection time, symbex time.

Paper numbers for scale comparison: constraint graphs up to ~40 K nodes,
bottleneck/recording-set computation at most 15 s, shepherded symbolic
execution 19 min average / 111 min max.  Our mini workloads are ~1000x
smaller, so the shapes to check are: selection is cheap relative to
symbex, and graph size stays bounded.
"""

import time

import pytest

from repro.core.selection import select_key_values
from repro.evaluation.formatting import render_table
from repro.evaluation.table1 import run_table1
from repro.interp.interpreter import Interpreter
from repro.symex.engine import ShepherdedSymex
from repro.trace.decoder import decode
from repro.trace.encoder import PTEncoder
from repro.trace.ringbuffer import RingBuffer
from repro.workloads import get_workload


def _stall_for(name):
    workload = get_workload(name)
    module = workload.module()
    encoder = PTEncoder(RingBuffer())
    run = Interpreter(module, workload.failing_env(1),
                      tracer=encoder).run()
    trace = decode(encoder.buffer)
    result = ShepherdedSymex(module, trace, run.failure,
                             work_limit=workload.work_limit).run()
    return result.stall


@pytest.mark.benchmark(group="offline-cost")
def test_selection_latency(benchmark):
    """Key-data-value selection on a real first-occurrence stall."""
    stall = _stall_for("sqlite-7be932d")
    assert stall is not None
    plan = benchmark(select_key_values, stall)
    assert plan.items


@pytest.mark.benchmark(group="offline-cost")
def test_offline_cost_summary(benchmark, save_artifact):
    result = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    rows = []
    for row in result.rows:
        rows.append([row.name, row.max_graph_nodes,
                     f"{row.symbex_wall_seconds:.2f} s",
                     f"{row.symbex_modelled_seconds:.1f} s",
                     row.recorded_bytes])
    table = render_table(
        ["Failure", "graph nodes", "symbex wall", "symbex modelled",
         "recorded bytes"], rows,
        "Offline analysis cost (paper: <=40K nodes, <=15s selection, "
        "avg 19 min symbex)")
    save_artifact("offline_cost", table)
    assert result.max_graph_nodes < 40_000
    total_wall = sum(r.symbex_wall_seconds for r in result.rows)
    assert total_wall < 120  # the whole suite stays laptop-scale
