"""Figure 5: benefit of recorded data values for shepherded symex.

Reproduces the paper's PHP-74194 experiment: run shepherded symbolic
execution over the same failure with (a) only the control-flow trace,
(b) the data values selected in the first iteration, and (c) those of
the second iteration, with the solver timeout effectively disabled, and
compare the solver time needed to push through the same execution.

The paper's numbers are 11468 s / 5006 s / 1800 s; the shape to
reproduce is a strict, large decrease from (a) to (c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..core.instrument import instrument
from ..core.production import ProductionSite
from ..core.selection import select_key_values
from ..solver.budget import WORK_PER_SECOND
from ..symex.engine import ShepherdedSymex
from ..workloads import get_workload
from .formatting import render_series, render_table

#: per-query cap in 'no timeout' mode (keeps wall time finite)
FIG5_QUERY_CAP_FACTOR = 10


@dataclass
class Figure5Series:
    label: str
    instrs_executed: int
    modelled_seconds: float
    status: str
    #: (instructions executed, cumulative modelled seconds) samples
    progress: List[Tuple[int, float]] = field(default_factory=list)


@dataclass
class Figure5Result:
    workload: str
    series: List[Figure5Series]

    @property
    def strictly_improving(self) -> bool:
        times = [s.modelled_seconds for s in self.series]
        return all(a > b for a, b in zip(times, times[1:]))

    def speedup(self) -> float:
        if self.series[-1].modelled_seconds == 0:
            return float("inf")
        return (self.series[0].modelled_seconds
                / self.series[-1].modelled_seconds)

    def render(self) -> str:
        headers = ["Trace contents", "Instrs replayed",
                   "Solver time (modelled s)", "Status"]
        rows = [[s.label, s.instrs_executed,
                 f"{s.modelled_seconds:.2f}", s.status]
                for s in self.series]
        out = [render_table(headers, rows,
                            f"Figure 5 — symbex progress on {self.workload} "
                            "(solver timeout disabled)")]
        out.append(f"speedup control-flow-only -> 2nd iteration: "
                   f"{self.speedup():.1f}x "
                   "(paper: 11468 s -> 1800 s, 6.4x)")
        for s in self.series:
            out.append(render_series(
                f"  progress [{s.label}]", s.progress[:12],
                "instrs", "modelled s"))
        return "\n".join(out)


def run_figure5(workload_name: str = "php-74194",
                iterations: int = 3) -> Figure5Result:
    workload = get_workload(workload_name)
    production = ProductionSite(workload.failing_env)
    deployed = workload.module()
    next_tag = 0
    already: set = set()
    labels = ["control-flow only",
              "control-flow + 1st-iteration data values",
              "control-flow + 2nd-iteration data values"]
    captured = []  # (label, module, occurrence)

    for index in range(iterations):
        occurrence = production.run_once(deployed)
        captured.append((labels[index], deployed, occurrence))
        if index == iterations - 1:
            break
        symex = ShepherdedSymex(deployed, occurrence.trace,
                                occurrence.failure,
                                work_limit=workload.work_limit)
        result = symex.run()
        if result.completed or result.stall is None:
            break
        plan = select_key_values(result.stall, frozenset(already))
        if not plan.items:
            break
        instrumented = instrument(deployed, plan.items, next_tag)
        deployed = instrumented.module
        next_tag = instrumented.next_tag
        already.update((i.point.func, i.register) for i in plan.items)

    series: List[Figure5Series] = []
    cap = workload.work_limit * FIG5_QUERY_CAP_FACTOR
    for label, module, occurrence in captured:
        # 'no timeout': retry past concretization conflicts (banning the
        # bad pick) so every run replays the whole trace; accumulate the
        # solver work across retries like a single long solving session
        banned: dict = {}
        total_work = 0
        result = None
        for _attempt in range(64):
            symex = ShepherdedSymex(module, occurrence.trace,
                                    occurrence.failure,
                                    work_limit=cap, continue_on_stall=True,
                                    banned_concretizations=banned)
            result = symex.run()
            total_work += result.stats.solver_work
            conflict = (result.stall.concretization_conflict
                        if result.stall else None)
            if result.status != "stalled" or conflict is None:
                break
            term_repr, value = conflict
            banned.setdefault(term_repr, set()).add(value)
        progress = [(instr, work / WORK_PER_SECOND)
                    for instr, work in result.stats.progress]
        series.append(Figure5Series(
            label=label,
            instrs_executed=result.stats.instrs_executed,
            modelled_seconds=total_work / WORK_PER_SECOND,
            status=result.status,
            progress=progress,
        ))
    return Figure5Result(workload_name, series)
