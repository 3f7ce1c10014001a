"""Table 1: the 13-bug reproduction study.

For every workload, run the full iterative reconstruction against its
simulated production site and report the columns of the paper's Table 1:
bug type, multithreadedness, program size, failing-execution length,
occurrences needed, and total shepherded-symbolic-execution time — plus
offline-cost extras (constraint-graph size, recorded bytes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..core import ExecutionReconstructor, ProductionSite
from ..core.report import ReconstructionReport
from ..parallel import fan_out, record_queue_wait
from ..workloads import Workload, all_workloads, get_workload
from .formatting import render_table


@dataclass
class Table1Row:
    name: str
    app: str
    bug_type: str
    multithreaded: bool
    static_instrs: int          # the 'LoC' analog of the mini app
    failing_instrs: int         # #Instr of the last failing execution
    occurrences: int            # #Occur
    paper_occurrences: int
    symbex_wall_seconds: float
    symbex_modelled_seconds: float
    recorded_bytes: int
    max_graph_nodes: int
    verified: bool
    bench_name: str
    report: Optional[ReconstructionReport] = field(default=None, repr=False)


@dataclass
class Table1Result:
    rows: List[Table1Row]

    @property
    def all_reproduced(self) -> bool:
        return all(r.verified for r in self.rows)

    @property
    def mean_occurrences(self) -> float:
        return sum(r.occurrences for r in self.rows) / len(self.rows)

    @property
    def single_occurrence_count(self) -> int:
        return sum(1 for r in self.rows if r.occurrences == 1)

    @property
    def max_graph_nodes(self) -> int:
        return max(r.max_graph_nodes for r in self.rows)

    def render(self) -> str:
        headers = ["Application-BugID", "Bug Type", "MT", "IR-Instr",
                   "#Instr(fail)", "#Occur", "(paper)", "Symbex Time",
                   "Benchmark"]
        rows = []
        for r in self.rows:
            rows.append([
                r.name, r.bug_type, "Y" if r.multithreaded else "N",
                r.static_instrs, r.failing_instrs, r.occurrences,
                r.paper_occurrences,
                f"{r.symbex_modelled_seconds:.1f} s (model) / "
                f"{r.symbex_wall_seconds:.2f} s (wall)",
                r.bench_name,
            ])
        footer = (f"\nreproduced {sum(r.verified for r in self.rows)}/"
                  f"{len(self.rows)}; mean #Occur "
                  f"{self.mean_occurrences:.1f} (paper ~3.5); "
                  f"{self.single_occurrence_count} single-occurrence "
                  f"reproductions (paper: 2); largest constraint graph "
                  f"{self.max_graph_nodes} nodes (paper: ~40K)")
        return render_table(headers, rows,
                            "Table 1 — bugs reproduced by ER") + footer


def run_workload(workload: Workload) -> Table1Row:
    """Reconstruct one workload and collect its Table-1 row."""
    module = workload.module()
    reconstructor = ExecutionReconstructor(
        module, work_limit=workload.work_limit,
        max_occurrences=workload.max_occurrences)
    production = ProductionSite(workload.failing_env)
    started = time.perf_counter()
    report = reconstructor.reconstruct(production)
    wall = time.perf_counter() - started
    last = report.iterations[-1] if report.iterations else None
    return Table1Row(
        name=workload.name,
        app=workload.app,
        bug_type=workload.bug_type,
        multithreaded=workload.multithreaded,
        static_instrs=module.instruction_count(),
        failing_instrs=last.instr_count if last else 0,
        occurrences=report.occurrences,
        paper_occurrences=workload.paper_occurrences,
        symbex_wall_seconds=report.total_symex_wall_seconds,
        symbex_modelled_seconds=report.total_symex_modelled_seconds,
        recorded_bytes=report.total_recorded_bytes,
        max_graph_nodes=max((i.graph_nodes for i in report.iterations),
                            default=0),
        verified=report.success and report.verified,
        bench_name=workload.bench_name,
        report=report,
    )


def _run_workload_row(name: str, context: telemetry.TraceContext,
                      submitted: float) -> Tuple[Table1Row, Dict]:
    """Worker task: one row by workload name, and its metric snapshot.

    The row is reconstructed under a registry joined to the caller's
    trace, whose snapshot rides back with it.  The full report is
    dropped before crossing the process boundary — the table only needs
    the scalar columns, and the report holds module and test-case
    objects that are expensive (and needless) to pickle.
    """
    registry = telemetry.Telemetry(context=context)
    record_queue_wait(registry, submitted)
    with telemetry.scoped(registry):
        row = run_workload(get_workload(name))
    row.report = None
    return row, registry.snapshot()


def run_table1(names: Optional[List[str]] = None,
               parallel: int = 1) -> Table1Result:
    """Regenerate Table 1 (optionally for a subset of workloads).

    ``parallel > 1`` fans the workloads out over worker processes
    (:func:`~repro.parallel.fan_out`) and folds their telemetry into the
    caller's registry; rows come back in registry order either way, but
    fanned-out rows carry no ``report`` (see :func:`_run_workload_row`).
    """
    selected = [w for w in all_workloads()
                if names is None or w.name in names]
    if parallel > 1 and len(selected) > 1:
        tel = telemetry.get()
        context = tel.trace_context()
        submitted = time.time()
        results = fan_out(_run_workload_row,
                          [(workload.name, context, submitted)
                           for workload in selected],
                          parallel)
        for _row, snapshot in results:
            tel.absorb(snapshot)
        rows = [row for row, _snapshot in results]
    else:
        rows = [run_workload(workload) for workload in selected]
    return Table1Result(rows)
