"""Gap-tolerant shepherding: recovering lost TNT bits (§4).

The paper's x86→LLVM mapping drops ~8.5 % of control-flow events; KLEE
then "deals with partially-recovered traces at the expense of slight
path explosion".  This module is that bounded exploration: branches with
concrete conditions recover their outcome for free during replay; the
remaining symbolic-condition gaps form a small decision vector the
driver searches depth-first, pruning with the divergence position —
choosing a wrong bit typically contradicts a *later recorded* bit
quickly.

Siblings do not replay their shared prefix.  Every attempt runs on the
search's :class:`~repro.symex.engine.GapPath`: the engine logs each
solver query it answers (instruction count plus exact-tier cache key)
and checkpoints its state at every symbolic gap it takes as True.  The
sibling that flips a gap resumes from that gap's checkpoint.  Replaying
the prefix instead would answer every logged query from the exact cache
tier, so the resumed run applies those hits' bookkeeping and nothing
else; if a logged key has left the tier, the sibling runs from chunk 0
as before.  Fig. 5's continue-on-stall mode takes no checkpoints: it
goes on past timed-out queries, which are never cached.

A :class:`SearchRecord` keeps what a serial search did (each attempt's
query log and the deepest chunk any attempt reached), so the recovering
driver's chunk-order search can skip an order that would repeat it.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import List, Optional, Tuple

from .. import telemetry
from ..interp.failures import FailureInfo
from ..ir.module import Module
from ..solver import terms as T
from ..solver.cache import SolverCache
from ..solver.incremental import AssumptionStack
from ..trace.decoder import DecodedTrace
from .engine import GapPath, ShepherdedSymex
from .result import SymexResult, SymexStats

logger = logging.getLogger(__name__)

#: bound on replays (exponential worst case; divergence-guided in practice)
MAX_GAP_ATTEMPTS = 512

__all__ = ["SearchRecord", "replay_with_gap_recovery", "MAX_GAP_ATTEMPTS"]


class SearchRecord:
    """What one serial gap search did, so that it can be replayed as
    bookkeeping instead of being run again.

    A search over another chunk order whose chunks are the same objects
    up to :attr:`depth` repeats this search attempt for attempt: every
    attempt diverged by then, and the engine never looks further ahead.
    Every query such a repeat asks was stored by the run that first
    asked it, so it answers them all from the exact cache tier.  An
    attempt that diverged in the failure constraints or the final solve
    (which is no exact-tier query) reached the last chunk, so only an
    identical order could repeat it, and candidate orders are distinct.
    """

    def __init__(self):
        #: per attempt, in order: how much of the previous attempt's
        #: query log its path kept, and the queries it answered itself
        #: (storing whole logs would repeat every shared prefix)
        self.attempts: List[Tuple[int, List[Tuple[int, object]]]] = []
        #: deepest chunk index any attempt reached; None when the search
        #: kept no record (it took no checkpoints)
        self.depth: Optional[int] = None
        #: the search's outcome
        self.result: Optional[SymexResult] = None

    def _logs(self):
        """Each attempt's query log from chunk 0, in attempt order (one
        list, updated in place)."""
        log: List[Tuple[int, object]] = []
        for kept, own in self.attempts:
            del log[kept:]
            log.extend(own)
            yield log

    def replay(self, cache: SolverCache) -> bool:
        """Apply a repeat's cache bookkeeping, every attempt's log in
        order.  Returns False, applying nothing, when a logged key has
        left the exact tier: a repeat would solve that query again."""
        if not all(cache.holds_exact(key)
                   for _, own in self.attempts for _, key in own):
            return False
        for log in self._logs():
            cache.replay_hits([key for _, key in log])
        return True

    def outcome(self) -> SymexResult:
        """The result a repeat returns: this search's, with the stats of
        its last attempt answered wholly from the cache (the same calls
        and progress instruction counts, no solver work)."""
        *_, log = self._logs()
        stats = SymexStats(instrs_executed=self.result.stats.instrs_executed)
        stats.add_cached_calls(instrs for instrs, _ in log)
        return dataclasses.replace(self.result, stats=stats)


def replay_with_gap_recovery(module: Module, trace: DecodedTrace,
                             failure: Optional[FailureInfo],
                             max_attempts: int = MAX_GAP_ATTEMPTS,
                             incremental: bool = True,
                             record: Optional[SearchRecord] = None,
                             **engine_kwargs) -> SymexResult:
    """Shepherd a trace containing :class:`GapEvent`s.

    DFS over the symbolic-gap outcomes: default each gap to 'taken'; on
    divergence, backtrack within the bits actually consumed (later gaps
    were never reached, so their defaults are untouched).  Returns the
    first non-diverged result, or the last divergence after the search
    is exhausted.

    ``incremental`` (default on) gives the session an :class:`AssumptionStack`,
    so sibling attempts' queries along a shared constraint prefix
    re-solve only the delta; switching it off re-solves every sibling
    from scratch (the A/B the benchmark harness measures).  ``record``,
    when given, is filled in by the search (see :class:`SearchRecord`).
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    # every attempt replays the same module and trace, so all attempts
    # share one term space and one solver cache: the common prefix's
    # queries hit the cache instead of being re-solved per replay
    cache = engine_kwargs.pop("solver_cache", None)
    if cache is None:
        cache = SolverCache()
    if incremental and cache.assumptions is None:
        cache.assumptions = AssumptionStack()
    with T.term_scope(reuse_active=True):
        return _search_gap_decisions(module, trace, failure, max_attempts,
                                     cache, engine_kwargs, record=record)


def _search_gap_decisions(module, trace, failure, max_attempts,
                          cache, engine_kwargs,
                          record: Optional[SearchRecord] = None):
    """Serial DFS over gap decisions.

    Attempts share one :class:`GapPath`: the first runs from chunk 0,
    each sibling resumes from the checkpoint of the gap it flips (see
    the module docstring).  ``record`` collects each attempt's query log
    and the deepest chunk reached.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    decisions: List[bool] = []
    path = None if engine_kwargs.get("continue_on_stall") else GapPath()
    resume = None
    deepest = -1
    last: Optional[SymexResult] = None
    attempts = 0
    while attempts < max_attempts:
        if cache.assumptions is not None:
            # attempt boundary: the stack keeps the surviving
            # common-prefix frames; the first query of this replay pops
            # exactly the abandoned sibling's frames
            cache.assumptions.mark_attempt()
        engine = ShepherdedSymex(module, trace, failure,
                                 gap_decisions=decisions,
                                 solver_cache=cache, **engine_kwargs)
        engine.path, engine.resume = path, resume
        result = engine.run()
        attempts += 1
        result.gap_attempts = attempts
        if record is not None and path is not None:
            kept = 0 if resume is None else resume.queries
            record.attempts.append((kept, path.queries[kept:]))
            deepest = max(deepest, result.diverged_chunk)
        if result.status != "diverged":
            telemetry.count("symex.gap_recoveries")
            telemetry.get().histogram(
                "symex.gap_attempts").record(attempts)
            if attempts > 1:
                logger.debug("gap recovery converged after %d replays",
                             attempts)
            return result
        telemetry.count("symex.gap_replays")
        last = result
        # the bits consumed up to the divergence are the DFS prefix
        prefix = list(result.gap_bits)
        while prefix and prefix[-1] is False:
            prefix.pop()          # False branch exhausted: backtrack
        if not prefix:
            break                 # whole space explored
        prefix[-1] = False        # try the other outcome
        decisions = prefix
        if path is not None:
            resume = path.resume_point(len(prefix) - 1, cache)
    if last is None:
        raise ValueError("trace has no chunks")
    last.divergence_reason += f" (after {attempts} gap assignments)"
    if record is not None and path is not None:
        record.depth = deepest
        record.result = last
    return last
