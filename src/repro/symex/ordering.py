"""Chunk-order recovery for ambiguous timestamps (§3.4).

Intel PT timestamps (MTC) are coarse: when two threads' chunks carry the
*same* timestamp, their true order is unknown.  The paper's ER
"arbitrarily selects a sequence of instructions and tries to reconstruct
the execution"; if that order contradicts the trace, another is tried.

:func:`candidate_orders` enumerates chunk orderings that respect the
timestamp partial order, permuting only within ambiguous groups
(equal-timestamp runs spanning more than one thread), identity order
first and then in odometer order: the *last* group's permutation varies
fastest, so under the :data:`MAX_TOTAL_ORDERS` cap only the last few
groups are ever permuted.
:func:`replay_with_order_recovery` drives shepherded symbolic execution
over the candidates until one replays without divergence.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional

from ..interp.failures import FailureInfo
from ..ir.module import Module
from ..trace.decoder import DecodedChunk, DecodedTrace
from .engine import ShepherdedSymex
from .result import SymexResult

#: permutations tried per ambiguous group (bounds the search)
MAX_GROUP_PERMUTATIONS = 24
#: total candidate orders tried before giving up
MAX_TOTAL_ORDERS = 256


def ambiguous_groups(chunks: List[DecodedChunk]) -> List[range]:
    """Index ranges of maximal equal-timestamp, multi-thread runs."""
    groups: List[range] = []
    start = 0
    while start < len(chunks):
        end = start + 1
        while end < len(chunks) and \
                chunks[end].timestamp == chunks[start].timestamp:
            end += 1
        tids = {chunks[i].tid for i in range(start, end)}
        if end - start > 1 and len(tids) > 1:
            groups.append(range(start, end))
        start = end
    return groups


def candidate_orders(chunks: List[DecodedChunk],
                     max_total: int = MAX_TOTAL_ORDERS
                     ) -> Iterator[List[DecodedChunk]]:
    """Reorderings consistent with the timestamps, at most ``max_total``.

    The identity order comes first (the paper's 'arbitrary selection').
    The rest follow :func:`itertools.product` over each group's first
    :data:`MAX_GROUP_PERMUTATIONS` permutations, which varies the *last*
    group fastest: with two-chunk groups, the default cap of 256 orders
    permutes only the last 8 groups and keeps every earlier group in
    identity order.  Orders are not sorted by how far they stray from
    the identity.
    """
    groups = ambiguous_groups(chunks)
    if not groups:
        yield list(chunks)
        return
    per_group = []
    for group in groups:
        perms = list(itertools.islice(
            itertools.permutations(group), MAX_GROUP_PERMUTATIONS))
        per_group.append(perms)
    emitted = 0
    for combo in itertools.product(*per_group):
        order = list(range(len(chunks)))
        for group, perm in zip(groups, combo):
            for slot, source in zip(group, perm):
                order[slot] = source
        yield [chunks[i] for i in order]
        emitted += 1
        if emitted >= max_total:
            return


def replay_with_order_recovery(module: Module, trace: DecodedTrace,
                               failure: Optional[FailureInfo],
                               max_attempts: int = MAX_TOTAL_ORDERS,
                               **engine_kwargs) -> SymexResult:
    """Shepherd the trace, searching over ambiguous chunk orders.

    Directed search: replay with the current order; on divergence,
    advance the permutation of the nearest ambiguous group at or before
    the diverging chunk and retry (later groups' choices are kept — the
    races the groups cover are independent in the coarse-interleaving
    regime).  Returns the first non-diverged result, or the last
    divergence with the attempt count recorded.
    """
    chunks = list(trace.chunks)
    groups = ambiguous_groups(chunks)
    perms: List[List[tuple]] = [
        list(itertools.islice(itertools.permutations(group),
                              MAX_GROUP_PERMUTATIONS))
        for group in groups
    ]
    state = [0] * len(groups)

    def current_order() -> List[DecodedChunk]:
        order = list(range(len(chunks)))
        for group, options, chosen in zip(groups, perms, state):
            for slot, source in zip(group, options[chosen]):
                order[slot] = source
        return [chunks[i] for i in order]

    last: Optional[SymexResult] = None
    for attempt in range(1, max_attempts + 1):
        candidate = DecodedTrace(chunks=current_order(),
                                 truncated=trace.truncated)
        result = ShepherdedSymex(module, candidate, failure,
                                 **engine_kwargs).run()
        if result.status != "diverged":
            return result
        last = result
        advanced = False
        # nearest group at or before the diverging chunk, falling back
        # to earlier ones whose permutations are not exhausted
        for index in reversed(range(len(groups))):
            if groups[index].start > result.diverged_chunk >= 0:
                continue
            if state[index] + 1 < len(perms[index]):
                state[index] += 1
                advanced = True
                break
            state[index] = 0  # exhausted: reset and carry to earlier
        if not advanced:
            break
    if last is not None:
        last.divergence_reason += f" (after {attempt} chunk orders)"
        return last
    raise ValueError("trace has no chunks")
