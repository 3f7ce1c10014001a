"""§5.2 accuracy: ER's exact reconstruction vs REPT's best-effort one.

REPT recovers data values by reverse execution from a core dump; the
paper reports that 15–60 % of values are incorrectly recovered once
traces exceed ~100 K instructions, and that the errors are silent.  ER,
by construction, produces a *replayable* execution: every value of the
replayed run is exact.

This harness measures REPT's recovery error on the Table-1 failing
executions (grouped by trace length) and verifies ER's replay
exactness on the same failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..baselines.rept import ReptAnalyzer, ReptReport
from ..core import ExecutionReconstructor, ProductionSite
from ..interp.interpreter import Interpreter
from ..workloads import Workload, all_workloads
from .formatting import percent, render_table


@dataclass
class AccuracyRow:
    name: str
    trace_length: int
    rept_error_rate: float       # wrong-or-unknown fraction of defs
    rept_incorrect_rate: float   # silently wrong fraction
    er_exact: bool               # ER replay reproduces the failure
    rept_by_distance: List[Tuple[int, float]]


@dataclass
class AccuracyResult:
    rows: List[AccuracyRow]

    @property
    def er_always_exact(self) -> bool:
        return all(r.er_exact for r in self.rows)

    def rept_error_grows_with_length(self) -> bool:
        """Longer traces should hurt REPT more (rank correlation > 0)."""
        ordered = sorted(self.rows, key=lambda r: r.trace_length)
        if len(ordered) < 2:
            return True
        first = ordered[: len(ordered) // 2]
        last = ordered[len(ordered) - len(first):]
        avg = lambda rs: sum(r.rept_error_rate for r in rs) / len(rs)
        return avg(last) >= avg(first)

    def render(self) -> str:
        headers = ["Failure", "Trace len", "REPT err (wrong+unknown)",
                   "REPT silently wrong", "ER replay exact?"]
        rows = [[r.name, r.trace_length, percent(r.rept_error_rate, 1),
                 percent(r.rept_incorrect_rate, 1),
                 "yes" if r.er_exact else "NO"] for r in self.rows]
        footer = ("\nER reproduces a replayable execution: every replayed "
                  "value is exact (paper: REPT loses 15-60% beyond 100K "
                  "instructions; all REPT reproductions contain incorrect "
                  "values)")
        curve = self._distance_curve()
        if curve:
            footer += "\n\nREPT error rate by distance from the failure " \
                      "(pooled):\n" + curve
        return render_table(headers, rows,
                            "Accuracy — ER vs REPT value recovery") + footer

    def _distance_curve(self) -> str:
        """Pooled REPT error per distance bucket: nearer = better."""
        from collections import defaultdict

        pooled = defaultdict(list)
        for row in self.rows:
            for bound, rate in row.rept_by_distance:
                pooled[bound].append(rate)
        lines = []
        for bound in sorted(pooled):
            rates = pooled[bound]
            label = f"<= {bound}" if bound < (1 << 29) else "all"
            lines.append(f"  distance {label:>9}: "
                         f"{percent(sum(rates) / len(rates), 1)} wrong "
                         f"or missing")
        return "\n".join(lines)


def measure_accuracy_for(workload: Workload) -> AccuracyRow:
    env = workload.failing_env(1)
    analyzer = ReptAnalyzer()
    rept: ReptReport = analyzer.analyze(workload.module(), env)

    reconstructor = ExecutionReconstructor(
        workload.module(), work_limit=workload.work_limit,
        max_occurrences=workload.max_occurrences)
    report = reconstructor.reconstruct(ProductionSite(workload.failing_env))
    er_exact = bool(report.success and report.verified)

    failing_run = Interpreter(workload.module(),
                              workload.failing_env(1)).run()
    return AccuracyRow(
        name=workload.name,
        trace_length=failing_run.instr_count,
        rept_error_rate=rept.error_rate,
        rept_incorrect_rate=rept.incorrect_rate,
        er_exact=er_exact,
        rept_by_distance=list(rept.by_distance),
    )


def run_accuracy(names: Optional[List[str]] = None) -> AccuracyResult:
    """Compare REPT and ER accuracy over the single-threaded failures.

    (REPT's published prototype targets single-threaded traces; we
    follow suit to keep the comparison fair.)
    """
    rows = []
    for workload in all_workloads():
        if workload.multithreaded:
            continue
        if names is not None and workload.name not in names:
            continue
        rows.append(measure_accuracy_for(workload))
    return AccuracyResult(rows)
