"""Result types for shepherded symbolic execution."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..ir.module import ProgramPoint
from ..solver.model import Model
from ..solver.terms import Term


#: cap on retained progress samples; above it the series is decimated
PROGRESS_SAMPLE_CAP = 4096


@dataclass
class SymexStats:
    """Bookkeeping for one shepherded run (feeds Fig. 5 / Table 1)."""

    instrs_executed: int = 0
    solver_calls: int = 0
    solver_work: int = 0
    wall_seconds: float = 0.0
    #: (instructions executed, cumulative solver work) samples, bounded
    #: by :data:`PROGRESS_SAMPLE_CAP` via stride-doubling decimation
    progress: List[Tuple[int, int]] = field(default_factory=list)
    _progress_stride: int = 1
    _progress_pending: int = 0

    def add_progress(self, instrs: int, work: int) -> None:
        """Append a (instrs, cumulative work) sample, decimating at the
        cap: every other sample is dropped and the keep-stride doubles,
        so memory stays O(cap) over arbitrarily long runs while the
        series keeps its shape (both axes are monotone)."""
        self._progress_pending += 1
        if self._progress_pending < self._progress_stride:
            return
        self._progress_pending = 0
        self.progress.append((instrs, work))
        if len(self.progress) >= PROGRESS_SAMPLE_CAP:
            del self.progress[::2]
            self._progress_stride *= 2

    def add_cached_calls(self, instrs: Iterable[int]) -> None:
        """Account solver calls the exact cache tier answered, one per
        instruction count: each adds a call and charges no work."""
        for count in instrs:
            self.solver_calls += 1
            self.add_progress(count, self.solver_work)

    def modelled_seconds(self) -> float:
        from ..solver.budget import WORK_PER_SECOND

        return self.solver_work / WORK_PER_SECOND

    def to_dict(self) -> dict:
        """Plain-data form (the CLI ``--json`` surface)."""
        return {
            "instrs_executed": self.instrs_executed,
            "solver_calls": self.solver_calls,
            "solver_work": self.solver_work,
            "wall_seconds": self.wall_seconds,
            "modelled_seconds": self.modelled_seconds(),
            "progress_samples": len(self.progress),
            "progress_stride": self._progress_stride,
        }


@dataclass
class StallInfo:
    """Everything key-data-value selection needs after a solver timeout."""

    #: path constraints accumulated up to the stall
    constraints: List[Term]
    #: the terms of the query that timed out (reads, bounds checks)
    stall_terms: List[Term]
    #: write-chain tops of every object with symbolic stores
    chains: List[Term]
    #: dynamic execution count per program point (recording cost input)
    exec_counts: Counter
    #: solver work spent by the stalling query
    work_spent: int = 0
    #: where symbolic execution stalled
    point: Optional[ProgramPoint] = None
    #: (repr(term), value) of the most recent concretization pick, when
    #: the stall may stem from it (retry protocol for Fig.-5 drivers)
    concretization_conflict: Optional[Tuple[str, int]] = None


@dataclass
class SymexResult:
    """Outcome of one shepherded symbolic execution."""

    status: str  # 'completed' | 'stalled' | 'diverged'
    constraints: List[Term] = field(default_factory=list)
    model: Optional[Model] = None
    stall: Optional[StallInfo] = None
    stats: SymexStats = field(default_factory=SymexStats)
    exec_counts: Counter = field(default_factory=Counter)
    divergence_reason: str = ""
    #: index of the trace chunk being replayed when divergence hit
    diverged_chunk: int = -1
    #: outcomes chosen for lost TNT bits at *symbolic* branches, in
    #: consumption order (concrete branches recover their bit for free)
    gap_bits: List[bool] = field(default_factory=list)
    #: replays a gap-recovery driver needed to find this result
    gap_attempts: int = 1

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def stalled(self) -> bool:
        return self.status == "stalled"
