#!/usr/bin/env python3
"""Directed fuzzing and forensics on top of ER's output (§2.4).

Two of the paper's motivating use cases, end to end:

1. **Security forensics** — the reconstructed execution's path
   constraints attribute the failure to specific input bytes (which
   bytes an attacker must control; which are irrelevant noise).
2. **Fuzz seeding** — the generated test case drops a fuzzer straight
   into the buggy neighbourhood; from-scratch fuzzing can't even get
   past the format's magic bytes in the same budget.

Run:  python examples/fuzzing_from_failures.py
"""

from repro.core import ExecutionReconstructor, ProductionSite
from repro.interp.interpreter import Interpreter
from repro.symex.engine import ShepherdedSymex
from repro.trace import PTEncoder, RingBuffer, decode
from repro.usecases import CoverageFuzzer, attribute_failure
from repro.workloads import get_workload


def main():
    workload = get_workload("libpng-2004-0597")
    module = workload.module()

    # --- reconstruct the production failure
    er = ExecutionReconstructor(module, work_limit=workload.work_limit)
    report = er.reconstruct(ProductionSite(workload.failing_env))
    print(f"reconstructed in {report.occurrences} occurrence(s); "
          f"generated image: {len(report.test_case.streams['png'])} bytes\n")

    # --- forensics: which bytes does the exploit actually control?
    encoder = PTEncoder(RingBuffer())
    run = Interpreter(module, workload.failing_env(1),
                      tracer=encoder).run()
    symex = ShepherdedSymex(module, decode(encoder.buffer), run.failure,
                            work_limit=workload.work_limit * 20).run()
    print(attribute_failure(symex).render())
    print()

    # --- fuzzing: ER seed vs from-scratch
    budget = 200
    seeded = CoverageFuzzer(workload.module(), "png", seed=7)
    seeded.add_seed(report.test_case.streams["png"])
    seeded_report = seeded.run(budget=budget)

    blind = CoverageFuzzer(workload.module(), "png", seed=7)
    blind_report = blind.run(budget=budget)

    print(f"fuzzing budget: {budget} executions")
    print(f"  seeded with ER test case: {seeded_report.coverage_points} "
          f"coverage points, {seeded_report.crash_count} distinct "
          f"crash(es), first at execution {seeded_report.first_crash_at}")
    print(f"  from scratch:            {blind_report.coverage_points} "
          f"coverage points, {blind_report.crash_count} crash(es), "
          f"first at {blind_report.first_crash_at}")
    assert seeded_report.crash_count >= 1
    print("\nproduction failures become fuzzing campaigns — the §2.4 "
          "pipeline")


if __name__ == "__main__":
    main()
