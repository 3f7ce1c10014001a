"""The replay-from-chunk-0 trace recovery, kept as a test oracle.

:func:`reference_search_gap_decisions` is the gap search the
checkpointed one replaced, verbatim: every attempt is a fresh
:class:`~repro.symex.engine.ShepherdedSymex` run from chunk 0, so a
sibling re-executes the whole prefix up to the gap it flips and answers
that prefix's solver queries from the cache again.
:func:`reference_recovering_driver` is the chunk-order loop the
recovering driver ran before it learned to skip orders: every candidate
order gets its own full gap search.  Both are test doubles, not
options: differential tests call them directly or swap the driver in
with ``monkeypatch``.  :class:`Lockstep` is such a driver: it runs the
checkpointed driver beside the reference and compares every call.
"""

from __future__ import annotations

import logging
from typing import List, Optional

from repro import telemetry
from repro.core.reconstructor import _recovering_driver
from repro.solver import terms as T
from repro.solver.cache import SolverCache
from repro.solver.incremental import AssumptionStack
from repro.symex.engine import ShepherdedSymex
from repro.symex.gaps import MAX_GAP_ATTEMPTS
from repro.symex.ordering import ambiguous_groups, candidate_orders
from repro.symex.result import SymexResult
from repro.trace.decoder import DecodedTrace

logger = logging.getLogger(__name__)


def reference_replay_with_gap_recovery(module, trace, failure,
                                       max_attempts=MAX_GAP_ATTEMPTS,
                                       incremental=True,
                                       **engine_kwargs) -> SymexResult:
    """``replay_with_gap_recovery`` over the reference search."""
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
        return reference_search_gap_decisions(module, trace, failure,
                                              max_attempts, cache,
                                              engine_kwargs)


def reference_search_gap_decisions(module, trace, failure, max_attempts,
                                   cache, engine_kwargs):
    """Serial DFS over gap decisions, every attempt from chunk 0."""
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    decisions: List[bool] = []
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
        while prefix and prefix[-1] is False:
            prefix.pop()          # False branch exhausted: backtrack
        if not prefix:
            break                 # whole space explored
        prefix[-1] = False        # try the other outcome
        decisions = prefix
    if last is None:
        raise ValueError("trace has no chunks")
    last.divergence_reason += f" (after {attempts} gap assignments)"
    return last


def reference_recovering_driver(module, trace, failure, **kwargs):
    """The recovering driver's loop: a full gap search per chunk order."""
    if not ambiguous_groups(trace.chunks):
        return reference_replay_with_gap_recovery(module, trace, failure,
                                                  **kwargs)
    last = None
    for chunks in candidate_orders(trace.chunks):
        candidate = DecodedTrace(chunks=chunks, truncated=trace.truncated)
        result = reference_replay_with_gap_recovery(module, candidate,
                                                    failure, **kwargs)
        if result.status != "diverged":
            return result
        last = result
    return last


class Canon:
    """Structural names for terms, comparable across term spaces.

    Term equality across spaces walks the structure without memoising
    shared subterms; naming each node once keeps comparing thousands of
    cache keys linear.  Provenance is part of a node's name: it is set
    once, by the search that built the term.
    """

    def __init__(self):
        self._table = {}
        self._memo = {}   # id -> (object, name): keeps the object alive

    def term(self, term):
        hit = self._memo.get(id(term))
        if hit is not None:
            return hit[1]
        stack = [term]
        while stack:
            node = stack[-1]
            if id(node) in self._memo:
                stack.pop()
                continue
            pending = [a for a in node.args if isinstance(a, T.Term)
                       and id(a) not in self._memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            shape = (node.op, tuple(self._memo[id(a)][1]
                                    if isinstance(a, T.Term) else a
                                    for a in node.args),
                     node.width, node.prov)
            self._memo[id(node)] = (
                node, self._table.setdefault(shape, len(self._table)))
        return self._memo[id(term)][1]

    def terms(self, terms):
        return [self.term(t) for t in terms]

    def key(self, key):
        hit = self._memo.get(id(key))
        if hit is not None:
            return hit[1]
        if type(key) is tuple:   # (term, constraint key, limit)
            name = (self.term(key[0]), self.key(key[1]), key[2])
        else:
            name = frozenset(self.terms(key))
        self._memo[id(key)] = (key, name)
        return name


def stats_state(stats):
    return (stats.instrs_executed, stats.solver_calls, stats.solver_work,
            list(stats.progress), stats._progress_stride,
            stats._progress_pending)


def result_state(result, canon):
    stall = result.stall
    return {
        "status": result.status,
        "gap_bits": list(result.gap_bits),
        "gap_attempts": result.gap_attempts,
        "reason": result.divergence_reason,
        "chunk": result.diverged_chunk,
        "constraints": canon.terms(result.constraints),
        "model": None if result.model is None else result.model.assignment,
        "stall": None if stall is None else (
            canon.terms(stall.constraints), canon.terms(stall.stall_terms),
            canon.terms(stall.chains), stall.exec_counts, stall.work_spent,
            stall.point, stall.concretization_conflict),
        "exec_counts": result.exec_counts,
        "stats": stats_state(result.stats),
    }


def cache_state(cache, canon):
    state = {
        "feasible": [(canon.key(k), v) for k, v in cache._feasible.items()],
        "values": [(canon.key(k), list(v), v.complete, v.truncated_reason)
                   for k, v in cache._values.items()],
        "infeasible": [canon.key(k) for k in cache._infeasible_keys],
        "stats": cache.stats(),
        "models": list(cache._models),
        "keyed_models": [(canon.key(k), m)
                         for k, m in cache._keyed_models],
    }
    stack = cache.assumptions
    if stack is not None:
        # attempts counts mark_attempt calls: skipped orders make none
        counters = {k: v for k, v in stack.stats().items()
                    if k != "attempts"}
        state["assumptions"] = (
            canon.terms(stack._terms), dict(stack.env),
            {canon.term(t): dep for t, dep in stack.satisfied.items()},
            {name: dict(values) for name, values in stack.excluded.items()},
            counters)
    return state


class Lockstep:
    """A recovering driver that runs the checkpointed driver beside the
    reference one.

    The reference runs on the reconstruction's cache and the
    reconstruction goes on with its result; the checkpointed driver
    runs on a shadow cache that has seen every earlier call.  Each call
    checks that the two results (stats included) and the two caches
    agree.
    """

    def __init__(self):
        self.shadow = None
        self.calls = 0
        self.canon = Canon()

    def __call__(self, module, trace, failure, **kwargs):
        cache = kwargs["solver_cache"]
        if self.shadow is None:
            self.shadow = SolverCache(max_entries=cache.max_entries)
        expected = reference_recovering_driver(module, trace, failure,
                                               **kwargs)
        got = _recovering_driver(module, trace, failure,
                                 **dict(kwargs, solver_cache=self.shadow))
        self.calls += 1
        assert result_state(got, self.canon) == \
            result_state(expected, self.canon), f"call {self.calls}"
        assert cache_state(self.shadow, self.canon) == \
            cache_state(cache, self.canon), f"call {self.calls}"
        return expected
