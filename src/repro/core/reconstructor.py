"""The iterative reconstruction loop (§3, Fig. 2).

Each iteration: wait for the failure to reoccur in production, ship the
trace, run shepherded symbolic execution, and either

* **complete** — solve for inputs, build a test case, verify it by
  replaying the deployed module, and return; or
* **stall** — run key data value selection on the constraint graph,
  instrument the program with ``ptwrite``s for the recording set, and
  redeploy for the next occurrence.

The loop is guaranteed to make progress for reoccurring failures because
every recorded value strictly concretizes part of the constraint graph.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional

from .. import telemetry
from ..errors import ReconstructionError
from ..interp.failures import FailureInfo
from ..interp.interpreter import Interpreter
from ..ir.module import Module
from ..solver.budget import DEFAULT_WORK_LIMIT, WORK_PER_SECOND
from ..solver.cache import SolverCache
from ..symex.engine import ShepherdedSymex
from ..symex.result import StallInfo
from .instrument import instrument
from .production import ProductionSite
from .report import IterationRecord, ReconstructionReport, TestCase
from .selection import RecordingPlan, select_key_values
from .signature import normalize_failure

SelectionFn = Callable[[StallInfo, frozenset], RecordingPlan]

logger = logging.getLogger(__name__)


def _exact_driver(module, trace, failure, **kwargs):
    # incrementality only matters to the recovering driver's gap search;
    # an exact trace has nothing to search, and stays bit-for-bit on the
    # non-incremental path
    kwargs.pop("incremental", None)
    return ShepherdedSymex(module, trace, failure, **kwargs).run()


def _recovering_driver(module, trace, failure, **kwargs):
    """Driver tolerating lost TNT bits and ambiguous chunk orders.

    Gap search runs inside each candidate chunk order; for exact traces
    this collapses to a single plain replay.

    No candidate order re-runs a search an earlier order already ran.
    When a candidate's chunks are the same objects as an already
    diverged order's up to the deepest chunk any of that order's
    attempts reached, its search would repeat the recorded one attempt
    for attempt, answering every query from the exact cache tier.  The
    driver then applies the recorded search's cache bookkeeping and
    takes its outcome (see :class:`~repro.symex.gaps.SearchRecord`).
    That needs the caller's solver cache, which every order shares;
    when a recorded query has since left the exact tier, the order
    runs.
    """
    from ..symex.gaps import SearchRecord, replay_with_gap_recovery
    from ..symex.ordering import ambiguous_groups, candidate_orders
    from ..trace.decoder import DecodedTrace

    if not ambiguous_groups(trace.chunks):
        return replay_with_gap_recovery(module, trace, failure, **kwargs)
    cache = kwargs.get("solver_cache")
    #: depth -> {identities of the chunks up to it: record}
    diverged: Dict[int, Dict[tuple, SearchRecord]] = {}
    last = skipped = None
    for chunks in candidate_orders(trace.chunks):
        skipped = _recorded_search(diverged, chunks)
        if skipped is not None and skipped.replay(cache):
            continue
        skipped = None
        record = SearchRecord() if cache is not None else None
        candidate = DecodedTrace(chunks=chunks, truncated=trace.truncated)
        result = replay_with_gap_recovery(module, candidate, failure,
                                          record=record, **kwargs)
        if result.status != "diverged":
            return result
        last = result
        if record is not None and record.depth is not None:
            diverged.setdefault(record.depth, {})[
                _chunk_ids(chunks, record.depth)] = record
    return skipped.outcome() if skipped is not None else last


def _chunk_ids(chunks, depth: int) -> tuple:
    return tuple(id(chunk) for chunk in chunks[:depth + 1])


def _recorded_search(diverged, chunks):
    """A recorded search that ``chunks`` would repeat, if any."""
    for depth, records in diverged.items():
        record = records.get(_chunk_ids(chunks, depth))
        if record is not None:
            return record
    return None


class ExecutionReconstructor:
    """End-to-end ER: reproduces a reoccurring production failure."""

    def __init__(self, module: Module, *,
                 work_limit: int = DEFAULT_WORK_LIMIT,
                 max_occurrences: int = 20,
                 max_unrelated_occurrences: Optional[int] = None,
                 verify: bool = True,
                 selection: SelectionFn = select_key_values,
                 trace_recovery: bool = False,
                 cache_dir: Optional[str] = None,
                 incremental: bool = True):
        self.module = module
        self.work_limit = work_limit
        self.max_occurrences = max_occurrences
        #: persistent cross-process solver-cache directory
        self.cache_dir = cache_dir
        #: assumption-stack reuse across sibling gap attempts
        self.incremental = incremental
        #: occurrences of *other* bugs never consume the reconstruction
        #: budget — ours still reoccurs regardless of how noisy the
        #: deployment is — but give-up must stay decidable, so they get
        #: their own (generous) bound
        self.max_unrelated = (max_unrelated_occurrences
                              if max_unrelated_occurrences is not None
                              else 10 * max_occurrences)
        self.verify = verify
        self.selection = selection
        #: tolerate degraded traces (lost TNT bits, timestamp-merged
        #: chunk order) by searching during replay — see DESIGN.md
        self.symex_driver = (_recovering_driver if trace_recovery
                             else _exact_driver)

    # ------------------------------------------------------------------

    def reconstruct(self, production: ProductionSite) -> ReconstructionReport:
        with telemetry.span("reconstruct.run"):
            report = self._reconstruct(production)
        telemetry.count("reconstruct.runs")
        telemetry.count("reconstruct.successes" if report.success
                        else "reconstruct.failures")
        logger.info("reconstruction %s after %d occurrence(s)",
                    "succeeded" if report.success else "FAILED",
                    report.occurrences)
        return report

    def _reconstruct(self,
                     production: ProductionSite) -> ReconstructionReport:
        tel = telemetry.get()
        deployed = self.module.clone()
        next_tag = 0
        signature: Optional[FailureInfo] = None
        iterations: List[IterationRecord] = []
        already_recorded: set = set()
        #: one cache per reconstruction: each iteration's search warm-
        #: starts from the previous iteration's partial model, and the
        #: common constraint prefix hits instead of being re-solved;
        #: with a cache_dir, a persistent tier shares results across
        #: reconstructions and processes
        persistent = None
        if self.cache_dir is not None:
            from ..solver.diskcache import DiskSolverCache
            persistent = DiskSolverCache(self.cache_dir)
        solver_cache = SolverCache(persistent=persistent)
        unrelated = 0

        occurrence_no = 0
        while occurrence_no < self.max_occurrences:
            logger.info("iteration %d: waiting for the failure to reoccur",
                        occurrence_no + 1)
            with tel.span("reconstruct.production",
                          iteration=occurrence_no + 1) as prod_span:
                occurrence = production.run_once(deployed)
            normalized = normalize_failure(deployed, occurrence.failure)
            if signature is None:
                signature = normalized
            elif not signature.matches(normalized):
                # a different bug: keep waiting for ours (paper matches
                # failures on PC + call stack) without spending the
                # reconstruction budget on it — but the wait is real
                # wall time, so attribute it instead of dropping it on
                # the floor (``repro stats`` totals must add up)
                unrelated += 1
                logger.info("unrelated failure %s (%d/%d); waiting",
                            normalized, unrelated, self.max_unrelated)
                tel.count("reconstruct.unrelated_failures")
                tel.histogram("reconstruct.unrelated_wait_seconds") \
                    .record(prod_span.seconds)
                if unrelated >= self.max_unrelated:
                    logger.warning(
                        "giving up: %d unrelated failures without a "
                        "reoccurrence of %s", unrelated, signature)
                    return ReconstructionReport(
                        success=False, failure=signature, test_case=None,
                        occurrences=occurrence_no, iterations=iterations,
                        final_module=deployed,
                        unrelated_occurrences=unrelated)
                continue
            occurrence_no += 1

            with tel.span("reconstruct.symex",
                          iteration=occurrence_no) as symex_span:
                result = self.symex_driver(deployed, occurrence.trace,
                                           occurrence.failure,
                                           work_limit=self.work_limit,
                                           solver_cache=solver_cache,
                                           incremental=self.incremental)
            record = IterationRecord(
                occurrence=occurrence_no,
                status=result.status,
                instr_count=occurrence.run.instr_count,
                trace_bytes=occurrence.trace_bytes,
                symex_wall_seconds=result.stats.wall_seconds,
                symex_modelled_seconds=result.stats.solver_work
                / WORK_PER_SECOND,
                solver_calls=result.stats.solver_calls,
            )
            record.phase_seconds["production"] = prod_span.seconds
            record.phase_seconds["symex"] = symex_span.seconds
            iterations.append(record)
            logger.info("iteration %d: symex %s (%d instrs, %d solver "
                        "calls, %.1f modelled s)", occurrence_no,
                        result.status, record.instr_count,
                        record.solver_calls,
                        record.symex_modelled_seconds)

            if result.completed:
                test_case = TestCase(
                    streams=result.model.streams(),
                    quantum=occurrence.run.env.quantum,
                    description=f"generated for {occurrence.failure}",
                )
                with tel.span("reconstruct.verify",
                              iteration=occurrence_no):
                    verified = (self._verify(deployed, test_case,
                                             occurrence.failure)
                                if self.verify else False)
                if self.verify and not verified:
                    raise ReconstructionError(
                        "generated test case failed replay verification")
                self._emit_iteration(tel, record)
                return ReconstructionReport(
                    success=True, failure=occurrence.failure,
                    test_case=test_case, occurrences=occurrence_no,
                    iterations=iterations, verified=verified,
                    final_module=deployed,
                    unrelated_occurrences=unrelated)

            if result.status == "diverged":
                self._emit_iteration(tel, record)
                raise ReconstructionError(
                    f"shepherded symbolic execution diverged: "
                    f"{result.divergence_reason}")

            # stalled: select key data values and redeploy
            with tel.span("reconstruct.selection",
                          iteration=occurrence_no) as sel_span:
                plan = self.selection(result.stall,
                                      frozenset(already_recorded))
            record.phase_seconds["selection"] = sel_span.seconds
            record.recorded_items = list(plan.items)
            record.recording_cost = plan.total_cost
            record.graph_nodes = plan.graph_nodes
            record.stall_point = str(result.stall.point)
            self._emit_iteration(tel, record)
            if not plan.items:
                raise ReconstructionError(
                    "stalled but nothing recordable was selected")
            logger.info(
                "iteration %d: stalled at %s; recording %d value(s), "
                "cost %d B/occurrence", occurrence_no, record.stall_point,
                len(plan.items), plan.total_cost)
            instrumented = instrument(deployed, plan.items, next_tag)
            deployed = instrumented.module
            next_tag = instrumented.next_tag
            already_recorded.update(
                (item.point.func, item.register) for item in plan.items)

        return ReconstructionReport(
            success=False, failure=signature, test_case=None,
            occurrences=self.max_occurrences, iterations=iterations,
            final_module=deployed, unrelated_occurrences=unrelated)

    @staticmethod
    def _emit_iteration(tel, record: IterationRecord) -> None:
        """One structured end-of-iteration event (drives ``repro stats``)."""
        tel.event("reconstruct.iteration",
                  iteration=record.occurrence,
                  status=record.status,
                  instrs=record.instr_count,
                  trace_bytes=record.trace_bytes,
                  solver_calls=record.solver_calls,
                  modelled_s=round(record.symex_modelled_seconds, 3),
                  recorded_bytes=record.recording_cost,
                  stall_point=record.stall_point)

    # ------------------------------------------------------------------

    def _verify(self, deployed: Module, test_case: TestCase,
                failure: FailureInfo) -> bool:
        """Replay the generated input: must hit the same failure."""
        result = Interpreter(deployed, test_case.environment()).run()
        return (result.failure is not None
                and result.failure.matches(failure))
