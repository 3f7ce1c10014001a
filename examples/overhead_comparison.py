#!/usr/bin/env python3
"""Monitoring overhead: ER's always-on tracing vs full record/replay.

Runs one application's performance benchmark under three monitors —
nothing, ER (PT-style control-flow tracing), and rr-style full
record/replay — and prints the modelled overheads, plus what changes
when the last reconstruction iteration's ``ptwrite``s are deployed.

Run:  python examples/overhead_comparison.py [workload-name]
"""

import sys

from repro.core import ExecutionReconstructor, ProductionSite
from repro.interp.interpreter import Interpreter
from repro.trace import OverheadModel, PTEncoder, RingBuffer
from repro.workloads import get_workload, workload_names


def measure(module, env_factory, runs=10):
    model = OverheadModel(seed=1)
    er, rr = [], []
    for i in range(runs):
        encoder = PTEncoder(RingBuffer())
        run = Interpreter(module, env_factory(i), tracer=encoder).run()
        assert run.failure is None
        er.append(model.er_sample(run, encoder.bytes_emitted).overhead)
        rr.append(model.rr_sample(run).overhead)
    return sum(er) / runs, sum(rr) / runs, run


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "sqlite-7be932d"
    if name not in workload_names():
        raise SystemExit(f"unknown workload; pick one of {workload_names()}")
    workload = get_workload(name)

    er_mean, rr_mean, run = measure(workload.module(),
                                    workload.benign_env)
    print(f"benchmark: {workload.bench_name} on {workload.app}")
    print(f"  instructions / run : {run.instr_count}")
    print(f"  ER (PT tracing)    : {er_mean * 100:6.2f}%   "
          "(paper: avg 0.3%)")
    print(f"  rr (record/replay) : {rr_mean * 100:6.1f}%   "
          "(paper: avg 48.0%)")

    print("\nreconstructing the failure to get the last-iteration "
          "instrumentation ...")
    er_loop = ExecutionReconstructor(workload.module(),
                                     work_limit=workload.work_limit)
    report = er_loop.reconstruct(ProductionSite(workload.failing_env))
    recorded = [i for it in report.iterations for i in it.recorded_items]
    print(f"  {report.occurrences} occurrences; recorded values: "
          f"{[item.register for item in recorded]}")

    er_last, _, run_last = measure(report.final_module,
                                   workload.benign_env, runs=4)
    print(f"  ER while recording : {er_last * 100:6.2f}%   "
          f"({run_last.ptwrite_count} ptwrites/run — transient, removed "
          "after the test case is generated)")


if __name__ == "__main__":
    main()
