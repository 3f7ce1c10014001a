#!/usr/bin/env python3
"""Reproduce the SQLite 7be932d NULL dereference (Table 1, row 3).

Shows the paper's §5.2 accuracy point in action: the generated SQL may
differ from the production query — different keyword *case* (``sEleCT``)
and different identifier names — yet it provably drives the engine down
the same control flow into the same crash, because keywords are
case-insensitive and identifier names don't change query semantics.

Run:  python examples/sqlite_null_deref.py
"""

from repro import Interpreter
from repro.core import ExecutionReconstructor, ProductionSite
from repro.workloads import get_workload


def main():
    workload = get_workload("sqlite-7be932d")
    module = workload.module()

    production_env = workload.failing_env(1)
    original_query = production_env.streams["sql"]
    crash = Interpreter(module, workload.failing_env(1)).run()
    print("=== production ===")
    print(f"query   : {original_query!r}")
    print(f"failure : {crash.failure}")
    print(f"trace   : {crash.instr_count} instructions, "
          f"{crash.branch_count} branches\n")

    print("=== execution reconstruction ===")
    er = ExecutionReconstructor(module, work_limit=workload.work_limit)
    report = er.reconstruct(ProductionSite(workload.failing_env))
    for iteration in report.iterations:
        line = (f"occurrence {iteration.occurrence}: {iteration.status:9s} "
                f"solver {iteration.symex_modelled_seconds:6.1f} modelled-s")
        if iteration.recorded_items:
            regs = ", ".join(f"{i.register}" for i in iteration.recorded_items)
            line += f"  -> record [{regs}]"
        print(line)

    generated = report.test_case.streams["sql"]
    print(f"\ngenerated query: {generated!r}")
    print(f"original  query: {original_query!r}")
    if generated != original_query:
        print("-> inputs differ (case / identifiers), control flow is "
              "identical — the paper's accuracy guarantee")

    replay = Interpreter(module, report.test_case.environment()).run()
    print(f"\nreplay: {replay.failure}")
    assert replay.failure is not None
    assert replay.failure.kind == workload.expected_kind


if __name__ == "__main__":
    main()
