"""Gap-tolerant shepherding: recovering lost TNT bits (§4).

The paper's x86→LLVM mapping drops ~8.5 % of control-flow events; KLEE
then "deals with partially-recovered traces at the expense of slight
path explosion".  This module is that bounded exploration: branches with
concrete conditions recover their outcome for free during replay; the
remaining symbolic-condition gaps form a small decision vector the
driver searches depth-first, pruning with the divergence position —
choosing a wrong bit typically contradicts a *later recorded* bit
quickly.
"""

from __future__ import annotations

import logging
from typing import List, Optional

from .. import telemetry
from ..errors import SearchCancelled
from ..interp.failures import FailureInfo
from ..ir.module import Module
from ..solver import terms as T
from ..solver.cache import SolverCache
from ..solver.incremental import AssumptionStack
from ..trace.decoder import DecodedTrace
from .engine import ShepherdedSymex
from .result import SymexResult

logger = logging.getLogger(__name__)

#: bound on replays (exponential worst case; divergence-guided in practice)
MAX_GAP_ATTEMPTS = 512

#: re-export: the ``control`` hook below raises :class:`SearchCancelled`,
#: which is defined in ``repro.errors``
__all__ = ["SearchCancelled", "replay_with_gap_recovery",
           "MAX_GAP_ATTEMPTS"]


def replay_with_gap_recovery(module: Module, trace: DecodedTrace,
                             failure: Optional[FailureInfo],
                             max_attempts: int = MAX_GAP_ATTEMPTS,
                             shards: int = 1,
                             cache_dir: Optional[str] = None,
                             incremental: bool = True,
                             **engine_kwargs) -> SymexResult:
    """Shepherd a trace containing :class:`GapEvent`s.

    DFS over the symbolic-gap outcomes: default each gap to 'taken'; on
    divergence, backtrack within the bits actually consumed (later gaps
    were never reached, so their defaults are untouched).  Returns the
    first non-diverged result, or the last divergence after the search
    is exhausted.

    ``shards > 1`` fans the search out over worker processes (see
    :func:`repro.parallel.shard_gap_search`): the decision tree is split
    into prefix subspaces explored concurrently, idle workers split a
    busy sibling's subspace, and the first solution in serial DFS order
    wins, so the result matches the serial search.  ``cache_dir``
    points every worker (and the serial search) at a shared persistent
    solver cache.  ``incremental`` (default on) gives the session an
    :class:`AssumptionStack`, so sibling attempts' queries along a
    shared constraint prefix re-solve only the delta; switching it off
    re-solves every sibling from scratch (the A/B the benchmark harness
    measures).
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    # every attempt replays the same module and trace, so all attempts
    # share one term space and one solver cache: the common prefix's
    # queries hit the cache instead of being re-solved per replay
    cache = engine_kwargs.pop("solver_cache", None)
    if cache is None:
        cache = SolverCache(persistent=_open_disk_cache(cache_dir))
    elif cache.persistent is None and cache_dir is not None:
        cache.persistent = _open_disk_cache(cache_dir)
    if shards > 1:
        from ..parallel import shard_gap_search  # lazy: avoid import cycle
        return shard_gap_search(module, trace, failure,
                                shards=shards, max_attempts=max_attempts,
                                solver_cache=cache, cache_dir=cache_dir,
                                incremental=incremental,
                                **engine_kwargs)
    if incremental and cache.assumptions is None:
        cache.assumptions = AssumptionStack()
    with T.term_scope(reuse_active=True):
        return _search_gap_decisions(module, trace, failure, max_attempts,
                                     cache, engine_kwargs)


def _open_disk_cache(cache_dir):
    if cache_dir is None:
        return None
    from ..solver.diskcache import DiskSolverCache
    return DiskSolverCache(cache_dir)


def _search_gap_decisions(module, trace, failure, max_attempts,
                          cache, engine_kwargs,
                          initial_decisions: Optional[List[bool]] = None,
                          locked_prefix: int = 0,
                          control=None):
    """Serial DFS over gap decisions, optionally confined to a subspace.

    ``initial_decisions`` seeds the first replay's decision vector and
    ``locked_prefix`` freezes its first N bits: backtracking never flips
    a locked bit, so the search covers exactly the subspace under that
    prefix — this is the per-shard body of the parallel search.  A
    divergence *inside* the locked prefix exhausts the subspace
    immediately (no sibling under this prefix can replay further).

    ``control`` is the work-stealing hook: its
    ``checkpoint(decisions, locked_prefix, attempts)`` runs before every
    replay and returns the (possibly extended) locked prefix length —
    extending it donates the untouched sibling half of the subspace to a
    thief.  It may raise :class:`SearchCancelled` to stop the shard once
    the parent has committed a winner in an earlier subspace.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    decisions: List[bool] = list(initial_decisions or [])
    last: Optional[SymexResult] = None
    attempts = 0
    while attempts < max_attempts:
        if control is not None:
            locked_prefix = control.checkpoint(decisions, locked_prefix,
                                               attempts)
        if cache.assumptions is not None:
            # attempt boundary (where steal checkpoints change the
            # prefix one decision at a time): the stack keeps the
            # surviving common-prefix frames; the first query of this
            # replay pops exactly the abandoned sibling's frames
            cache.assumptions.mark_attempt()
        engine = ShepherdedSymex(module, trace, failure,
                                 gap_decisions=decisions,
                                 solver_cache=cache, **engine_kwargs)
        result = engine.run()
        attempts += 1
        result.gap_attempts = attempts
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
        while len(prefix) > locked_prefix and prefix[-1] is False:
            prefix.pop()          # False branch exhausted: backtrack
        if len(prefix) <= locked_prefix:
            break                 # subspace (or whole space) explored
        prefix[-1] = False        # try the other outcome
        decisions = prefix
    if last is None:
        raise ValueError("trace has no chunks")
    last.divergence_reason += f" (after {attempts} gap assignments)"
    return last
