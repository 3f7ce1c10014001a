"""Session-scoped memoization of solver queries (+ warm-start models).

Shepherded symbolic execution issues a solver query at *every* symbolic
memory access, and consecutive queries share almost all of their
constraint set — the path constraint grows monotonically, and loops
re-assert the same in-bounds terms over and over.  Three layers exploit
that redundancy, all sound by construction:

1. **Exact-key memoization** — feasibility and value-enumeration
   results are keyed on the *normalized* constraint set (a frozenset of
   hash-consed terms, so duplicated and reordered constraints collapse
   to one key).  Loops that re-check an unchanged constraint set hit
   this layer for free.
2. **Model probing** — a model that satisfied the previous query very
   often satisfies the current, slightly larger one.  Before searching,
   recent models are re-evaluated against the new constraint set with
   the three-valued evaluator (cost: one propagation pass, charged to
   the budget); a surviving model answers feasibility immediately.
   Each model keeps the constraint prefix probes already proved it
   satisfies, with its charges: a probe charges that prefix and
   evaluates only the rest.
3. **Warm-start hints** — the most recent satisfying assignment seeds
   the search's candidate ordering, so the backtracking solver tries
   "what worked last time" before anything else.  Across reconstruction
   iterations the reconstructor shares one cache, warm-starting each
   iteration's search from the previous iteration's partial model.

Two further layers reach past the exact memo:

4. **Superset models** — a small window of recent (constraint set,
   model) pairs answers ``solve`` for a set or any subset of it: the
   model satisfies every constraint of the subset.  ``solve`` verifies
   the model against the live constraints before returning it.
5. **Persistence** — an optional disk tier
   (:class:`~repro.solver.diskcache.DiskSolverCache`) answers exact
   constraint sets, keyed on canonical term digests and shared across
   processes through one append-only locked file.  Only the fleet
   service opens one (``FleetService(cache_dir=...)``).

Timeouts are never cached (they are budget-dependent), and enumeration
results are only cached when complete or limit-truncated — never when
truncated by an unknown value.

A cache belongs to one session (one engine run, or one reconstruction
when the reconstructor threads its cache through every iteration); keys
are :class:`~repro.solver.terms.Term` objects, whose structural
equality keeps them valid even across term-space boundaries.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .. import telemetry
from .terms import Term, term_digest

__all__ = ["ProvenModel", "SolverCache", "ValueEnumeration"]

#: bound of the superset-model window
_MAX_KEYED_MODELS = 16
#: term -> digest memo bound (serialization is O(term size); constraint
#: sets grow monotonically, so each term is digested once per session)
_MAX_DIGEST_MEMO = 8192


class ValueEnumeration(List[int]):
    """``feasible_values`` result: a list plus an explicit completeness flag.

    ``complete`` is True only when the enumeration provably exhausted
    the value set (the final query was unsatisfiable).  A False flag
    means *partial*: the ``limit`` was reached, or a model left the term
    unevaluable (``truncated_reason`` says which) — callers must not
    treat the list as the full value set.
    """

    __slots__ = ("complete", "truncated_reason")

    def __init__(self, values: Sequence[int] = (), *,
                 complete: bool = False,
                 truncated_reason: Optional[str] = None):
        super().__init__(values)
        self.complete = complete
        self.truncated_reason = truncated_reason

    def __repr__(self):
        state = "complete" if self.complete \
            else f"partial:{self.truncated_reason}"
        return f"ValueEnumeration({list(self)!r}, {state})"


class ProvenModel(dict):
    """A recorded model, and the longest constraint prefix a model probe
    proved it satisfies.

    ``proven[i]`` is a constraint (probes match it by identity) and
    ``charges[i]`` the work that evaluating ``proven[:i + 1]`` under the
    model costs, so a later probe sharing that prefix charges it
    without evaluating it.  The dict itself is the assignment; it is
    never mutated, or the charges would not hold.
    """

    __slots__ = ("proven", "charges")

    def __init__(self, assignment: Dict[str, int]):
        super().__init__(assignment)
        self.proven: List[Term] = []
        self.charges: List[int] = []


class SolverCache:
    """Memoized query results and warm-start models for one session."""

    def __init__(self, max_entries: int = 4096, max_models: int = 4,
                 persistent=None):
        self.max_entries = max_entries
        #: optional disk tier (:class:`DiskSolverCache`), shared across
        #: processes; consulted after every in-memory miss
        self.persistent = persistent
        #: frozenset(constraints) -> bool
        self._feasible: "OrderedDict[FrozenSet[Term], bool]" = OrderedDict()
        #: (term, frozenset(constraints), limit) -> ValueEnumeration
        self._values: "OrderedDict[Tuple, ValueEnumeration]" = OrderedDict()
        #: recent satisfying assignments, newest last
        self._models: Deque[ProvenModel] = deque(maxlen=max_models)
        #: recent (key, model) pairs (superset-model window)
        self._keyed_models: Deque[Tuple[FrozenSet[Term], Dict[str, int]]] = \
            deque(maxlen=_MAX_KEYED_MODELS)
        #: Term -> canonical digest memo (disk-tier keys)
        self._digests: "OrderedDict[Term, str]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.model_probe_hits = 0
        self.subsumption_hits = 0
        self.disk_hits = 0

    # -- keys ------------------------------------------------------------

    @staticmethod
    def key(constraints: Sequence[Term]) -> FrozenSet[Term]:
        """Normalized constraint-set key: order and duplicates erased."""
        return frozenset(constraints)

    def digest_key(self, key: FrozenSet[Term]) -> FrozenSet[str]:
        """The key's cross-process form: canonical per-term digests."""
        return frozenset(self.term_digest(term) for term in key)

    def term_digest(self, term: Term) -> str:
        """One term's canonical digest, via the session memo."""
        digest = self._digests.get(term)
        if digest is None:
            digest = term_digest(term)
            self._digests[term] = digest
            while len(self._digests) > _MAX_DIGEST_MEMO:
                self._digests.popitem(last=False)
        else:
            self._digests.move_to_end(term)
        return digest

    # -- feasibility -----------------------------------------------------

    def lookup_feasible(self, key: FrozenSet[Term]) -> Optional[bool]:
        result = self.peek_feasible(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def peek_feasible(self, key: FrozenSet[Term]) -> Optional[bool]:
        """Exact in-memory lookup with no hit/miss accounting."""
        result = self._feasible.get(key)
        if result is not None:
            self._feasible.move_to_end(key)
        return result

    def lookup_subsumed(self, key: FrozenSet[Term]) -> Optional[bool]:
        """Answer an exact in-memory miss from the disk tier: the stored
        verdict for exactly ``key``, or ``None``.

        The name is older than exact-only lookups; it stays because the
        layer benchmark wraps this method by name.  No hit/miss
        accounting beyond ``disk_hits``; callers settle
        ``hits``/``misses`` once they know the final outcome.  A disk
        model rides back into the probe window so warm starts survive
        process boundaries.
        """
        if self.persistent is None:
            return None
        found = self.persistent.lookup(self.digest_key(key))
        if found is None:
            return None
        feasible, model = found
        self.disk_hits += 1
        if model:
            self.record_model(model)
        return feasible

    def superset_model(self, key: FrozenSet[Term]):
        """A model recorded for ``key`` or a superset of it, if any.

        Returns ``(model, source)``: ``source`` is ``"memory"`` for the
        superset-model window, which may hold ``key`` or a superset, and
        ``"disk"`` for the disk tier, which answers ``key`` only.
        Returns ``None`` when neither has one.  A superset's model
        satisfies every constraint in the subset, so the model is sound
        to *try* for ``solve``; callers still verify it against the live
        constraints before returning it, so a stale or corrupt disk tier
        degrades to a wasted check, never a wrong model.
        """
        for stored_key, model in reversed(self._keyed_models):
            if stored_key >= key:
                return dict(model), "memory"
        if self.persistent is not None:
            found = self.persistent.lookup(self.digest_key(key))
            if found is not None:
                feasible, model = found
                if feasible and model:
                    self.disk_hits += 1
                    return dict(model), "disk"
        return None

    def store_feasible(self, key: FrozenSet[Term], feasible: bool, *,
                       write_through: bool = True) -> None:
        self._feasible[key] = feasible
        self._feasible.move_to_end(key)
        while len(self._feasible) > self.max_entries:
            self._feasible.popitem(last=False)
        if write_through and self.persistent is not None:
            self.persistent.store(self.digest_key(key), feasible)

    # -- value enumeration ----------------------------------------------

    @staticmethod
    def values_key(term: Term, key: FrozenSet[Term], limit: int) -> Tuple:
        """The exact-tier key of an enumeration of ``term`` under the
        constraint-set ``key``."""
        return (term, key, limit)

    def lookup_values(self, term: Term, key: FrozenSet[Term],
                      limit: int) -> Optional[ValueEnumeration]:
        values_key = self.values_key(term, key, limit)
        result = self._values.get(values_key)
        if result is None:
            self.misses += 1
        else:
            self._values.move_to_end(values_key)
            self.hits += 1
        return result

    def store_values(self, term: Term, key: FrozenSet[Term], limit: int,
                     values: ValueEnumeration,
                     witnesses: Optional[List[Dict[str, int]]] = None, *,
                     write_through: bool = True) -> None:
        """Memoize an enumeration; persist it when it is budget-stable.

        Only ``complete`` and limit-truncated enumerations reach the
        disk tier (an ``unevaluable`` truncation depends on which model
        the search happened to find).  ``witnesses`` — one satisfying
        assignment per enumerated value — ride along so loaders can
        re-verify every value against their live constraints, exactly
        like cached models: a poisoned file degrades to a cache miss,
        never to injected values.
        """
        self._values[self.values_key(term, key, limit)] = values
        while len(self._values) > self.max_entries:
            self._values.popitem(last=False)
        if (write_through and self.persistent is not None
                and (values.complete or values.truncated_reason == "limit")
                and len(witnesses or ()) == len(values)):
            self.persistent.store_values(
                self.digest_key(key), self.term_digest(term), limit,
                list(values), values.complete, values.truncated_reason,
                witnesses or [])

    def lookup_values_persistent(self, term: Term, key: FrozenSet[Term],
                                 limit: int):
        """Disk-tier enumeration lookup: ``(enumeration, witnesses)``.

        The result is *unverified* — callers must check every witness
        against their live constraints (and the term against its
        claimed value) before trusting it, mirroring the superset-model
        verification path.
        """
        if self.persistent is None:
            return None
        found = self.persistent.lookup_values(
            self.digest_key(key), self.term_digest(term), limit)
        if found is None:
            return None
        values, complete, reason, witnesses = found
        enum = ValueEnumeration(values, complete=complete,
                                truncated_reason=reason)
        return enum, witnesses

    # -- replayed hits ---------------------------------------------------

    def _exact_tier(self, key) -> "OrderedDict":
        return self._values if type(key) is tuple else self._feasible

    def holds_exact(self, key) -> bool:
        """Would an exact in-memory lookup of ``key`` hit?  ``key`` is a
        feasibility key (:meth:`key`) or an enumeration key
        (:meth:`values_key`)."""
        return key in self._exact_tier(key)

    def replay_hits(self, keys: Sequence) -> None:
        """Apply what answering ``keys`` from the exact tier again does.

        Each key moves to its tier's LRU end, and ``hits`` and the
        ``solver.cache.hits`` counter grow by one per key, as in
        ``peek_feasible`` and ``lookup_values`` hits; nothing else
        changes.  Every key must be held (see :meth:`holds_exact`).
        """
        if not keys:
            return
        for key in keys:
            self._exact_tier(key).move_to_end(key)
        self.hits += len(keys)
        telemetry.count("solver.cache.hits", len(keys))

    # -- models ----------------------------------------------------------

    def record_model(self, assignment: Dict[str, int],
                     key: Optional[FrozenSet[Term]] = None) -> None:
        """Remember a satisfying assignment for probing and warm starts.

        When ``key`` (the constraint set the model satisfies) is given,
        the pair also feeds the superset-model window and is written
        through to the disk tier.
        """
        if assignment and assignment not in self._models:
            self._models.append(ProvenModel(assignment))
        if key is not None and assignment:
            self._keyed_models.append((key, dict(assignment)))
            if self.persistent is not None:
                self.persistent.store(self.digest_key(key), True,
                                      model=assignment)

    def recent_models(self) -> List[ProvenModel]:
        """Newest first — the best probe order."""
        return list(reversed(self._models))

    def hints(self) -> Dict[str, int]:
        """The most recent model, as search-ordering hints."""
        return dict(self._models[-1]) if self._models else {}

    # -- stats -----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "model_probe_hits": self.model_probe_hits,
            "subsumption_hits": self.subsumption_hits,
            "disk_hits": self.disk_hits,
            "hit_rate": round(self.hit_rate, 4),
            "feasible_entries": len(self._feasible),
            "value_entries": len(self._values),
        }
        if self.persistent is not None:
            out["persistent"] = self.persistent.stats()
        return out
