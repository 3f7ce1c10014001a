#!/usr/bin/env python3
"""Reproduce the memcached CVE-2019-11596 race (multithreaded, §3.4).

The failure only manifests under a specific thread interleaving: one
worker tears a shared connection down inside another worker's dump
window.  ER's trace records the scheduler chunks (the PT timestamp
packets of §3.4), so shepherded symbolic execution replays the exact
coarse-grained interleaving — and the generated test case pins the same
schedule, making the heisenbug deterministic.

Run:  python examples/memcached_race.py
"""

from repro import Environment, Interpreter
from repro.core import ExecutionReconstructor, ProductionSite
from repro.trace import PTEncoder, RingBuffer, decode
from repro.workloads import get_workload


def main():
    workload = get_workload("memcached-2019-11596")
    module = workload.module()

    # --- the race fires only for the right schedule
    racy_env = workload.failing_env(1)
    encoder = PTEncoder(RingBuffer())
    crash = Interpreter(module, racy_env, tracer=encoder).run()
    trace = decode(encoder.buffer)
    print("=== the racy schedule ===")
    print(f"failure: {crash.failure}")
    schedule = [(c.tid, c.n_instrs) for c in trace.chunks]
    print(f"scheduler chunks (tid, instrs): {schedule[:12]} ...")
    print(f"threads involved: {trace.tids()}\n")

    # the same commands with a coarser quantum don't crash
    calm = workload.failing_env(1)
    calm.quantum = 500
    calm_run = Interpreter(module, calm).run()
    print(f"same inputs, coarser schedule -> failure: {calm_run.failure}\n")

    # --- ER reconstructs input *and* schedule
    print("=== execution reconstruction ===")
    er = ExecutionReconstructor(module, work_limit=workload.work_limit)
    report = er.reconstruct(ProductionSite(workload.failing_env))
    print(report.summary())

    test_case = report.test_case
    print(f"\ntest case pins quantum={test_case.quantum} and streams "
          f"{sorted(test_case.streams)}")
    replay = Interpreter(module, test_case.environment()).run()
    print(f"replay: {replay.failure}")
    assert replay.failure is not None and \
        replay.failure.matches(crash.failure)
    print("\nthe heisenbug is now a deterministic unit test")


if __name__ == "__main__":
    main()
