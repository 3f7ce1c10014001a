"""§5.2 ablation: key data value selection vs random recording.

The random strategy records the *same number of bytes* per iteration as
ER's selection would, but picks uniformly among the constraint graph's
recordable nodes, and gets the same number of failure occurrences ER
needed.  The paper reports that random recording reproduces only one of
the failures that need data values (Nasm-2004-1287); the others keep
stalling because the random values do not simplify the bottleneck
constraints.  (Our mini applications have far smaller constraint graphs
than the paper's — tens of recordable values rather than tens of
thousands — so a lucky random pick is more likely; the comparison uses
several seeds and reports the per-seed success rate.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..baselines.random_selection import random_selection
from ..core import ExecutionReconstructor, ProductionSite
from ..errors import ReconstructionError
from ..workloads import all_workloads
from .formatting import render_table


@dataclass
class RandomCmpRow:
    name: str
    er_occurrences: int
    er_success: bool
    random_successes: int      # over the seeds tried
    seeds_tried: int
    needs_data: bool   # ER needed >1 occurrence (i.e. data recording)

    @property
    def random_success(self) -> bool:
        """Majority of seeds reproduced the failure."""
        return self.random_successes * 2 > self.seeds_tried


@dataclass
class RandomCmpResult:
    rows: List[RandomCmpRow]
    max_occurrences: int

    @property
    def needing_data(self) -> List[RandomCmpRow]:
        return [r for r in self.rows if r.needs_data]

    @property
    def er_wins(self) -> int:
        return sum(1 for r in self.needing_data
                   if r.er_success and not r.random_success)

    def render(self) -> str:
        headers = ["Failure", "needs data?", "ER #Occur",
                   "random (same #Occur budget)"]
        rows = [[r.name, "yes" if r.needs_data else "no",
                 f"{r.er_occurrences} ({'ok' if r.er_success else 'FAIL'})",
                 f"{r.random_successes}/{r.seeds_tried} seeds"]
                for r in self.rows]
        needing = self.needing_data
        reproduced = sum(1 for r in needing if r.random_success)
        footer = (f"\nrandom recording reproduced {reproduced}/"
                  f"{len(needing)} of the failures that need data values "
                  "within ER's occurrence budget (paper: 1/11)")
        return render_table(
            headers, rows,
            "Key-data-value selection vs random recording") + footer


def run_random_comparison(names: Optional[List[str]] = None,
                          seeds: int = 3) -> RandomCmpResult:
    rows = []
    for workload in all_workloads():
        if names is not None and workload.name not in names:
            continue
        er = ExecutionReconstructor(
            workload.module(), work_limit=workload.work_limit,
            max_occurrences=workload.max_occurrences)
        er_report = er.reconstruct(ProductionSite(workload.failing_env))

        successes = 0
        for seed in range(seeds):
            rand = ExecutionReconstructor(
                workload.module(), work_limit=workload.work_limit,
                max_occurrences=er_report.occurrences,
                selection=random_selection(1000 + seed))
            try:
                rand_report = rand.reconstruct(
                    ProductionSite(workload.failing_env))
                if rand_report.success and rand_report.verified:
                    successes += 1
            except ReconstructionError:
                pass
        rows.append(RandomCmpRow(
            name=workload.name,
            er_occurrences=er_report.occurrences,
            er_success=er_report.success and er_report.verified,
            random_successes=successes,
            seeds_tried=seeds,
            needs_data=er_report.occurrences > 1,
        ))
    return RandomCmpResult(rows, er_report.occurrences)
