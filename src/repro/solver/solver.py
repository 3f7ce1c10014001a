"""Budgeted constraint solver over bitvector/array terms.

The solving strategy is propagation plus candidate-guided backtracking
over the symbolic input bytes:

1. **Unit propagation** — constraints of the form ``var == const`` (or
   uniquely invertible chains such as ``(var + k) == c``,
   ``concat(bytes) == c``) assign variables directly.
2. **Search** — remaining free variables are assigned depth-first in
   order of first appearance; at each depth, every constraint whose
   variables are now all assigned is checked with the three-valued
   evaluator.  Candidate values derived from the constraints (equality
   inversions, table-content scans) are tried before the exhaustive
   byte range.

Every evaluation charges the shared :class:`~repro.solver.budget.Budget`;
exceeding it raises :class:`~repro.errors.SolverTimeout` — ER's stall.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from operator import is_
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import telemetry
from ..errors import SolverTimeout, UnsatError
from ..ir.types import mask
from .budget import DEFAULT_WORK_LIMIT, Budget
from .cache import ProvenModel, SolverCache, ValueEnumeration
from .evaluator import tv_eval
from .model import Model
from .terms import Term, bool_term, cmp, const, iter_nodes

#: Give up deriving candidates from arrays bigger than this.
_MAX_SCAN_BYTES = 4096
#: Model probes may spend at most this fraction of the remaining budget,
#: so a failed probe can never turn a would-have-succeeded query into a
#: timeout.
_PROBE_BUDGET_DIVISOR = 4
#: "No speculative depth referenced" sentinel (deeper than any DFS).
_NO_FLOOR = 1 << 30

logger = logging.getLogger(__name__)


@contextmanager
def _metered(kind: str, budget: Budget):
    """Account one top-level solver query: work spent, outcome, timeouts.

    Work is charged as the budget delta so queries sharing one budget
    (e.g. the enumeration loop of ``feasible_values``) are attributed
    exactly once.  Per-outcome counters branch, but the query count and
    the work histogram settle in one ``finally`` — every exit path is
    attributed exactly once.
    """
    tel = telemetry.get()
    before = budget.spent
    try:
        with tel.span("solver.query", kind=kind):
            yield
    except SolverTimeout:
        tel.count("solver.timeouts")
        logger.debug("solver %s query timed out after %d work (%s)",
                     kind, budget.spent - before, budget.context)
        raise
    except UnsatError:
        tel.count("solver.unsat")
        raise
    finally:
        tel.count(f"solver.queries.{kind}")
        tel.histogram("solver.work_per_query").record(budget.spent - before)


class Solver:
    """Reusable solver facade; each query gets its own budget by default.

    With a :class:`~repro.solver.cache.SolverCache` attached (one per
    symex session, or one per reconstruction when shared across
    iterations), repeated queries over the same normalized constraint
    set are memoized, recent models answer feasibility checks without
    searching, and the latest model warm-starts every search's candidate
    ordering.  Without a cache, behaviour is the uncached baseline.
    """

    def __init__(self, work_limit: int = DEFAULT_WORK_LIMIT,
                 cache: Optional[SolverCache] = None):
        self.work_limit = work_limit
        self.cache = cache
        # function-level import: backend wraps _Search from this
        # module, so importing it at module scope would be circular
        from .backend import ReferenceBackend
        #: the search; called through the instance so a wrapper
        #: installed on ``ReferenceBackend.search`` sees every query
        self.backend = ReferenceBackend()

    def solve(self, constraints: Sequence[Term],
              budget: Optional[Budget] = None) -> Model:
        """Find a model or raise UnsatError / SolverTimeout."""
        budget = budget if budget is not None else Budget(self.work_limit)
        with _metered("solve", budget):
            return self._solve(constraints, budget, count=True)

    def _solve(self, constraints: Sequence[Term], budget: Budget,
               count: bool = False) -> Model:
        """``count=True`` (the public ``solve`` entry) attributes the
        cache outcome to the hit/miss counters; internal callers
        (``is_feasible``'s search, enumeration) account at their own
        query granularity instead."""
        cache = self.cache
        key = None
        if cache is not None:
            key = SolverCache.key(constraints)
            found = cache.superset_model(key)
            if found is not None:
                candidate, source = found
                if self._verify_model(constraints, candidate, budget):
                    # a model cached for this key or a superset of it
                    # satisfies all of these constraints — verified
                    # above, so even a stale/corrupt disk tier cannot
                    # smuggle in a bad model
                    cache.subsumption_hits += 1
                    telemetry.count("solver.cache.subsumption_hits")
                    if source.startswith("disk"):
                        telemetry.count("solver.cache.disk_hits")
                        if source == "disk-exact":
                            telemetry.count(
                                "solver.cache.disk_hits_exact")
                        else:
                            telemetry.count(
                                "solver.cache.disk_hits_subsume")
                    if count:
                        cache.hits += 1
                        telemetry.count("solver.cache.hits")
                        telemetry.event("solver.cache_hit", query="solve",
                                        tier=source)
                    cache.record_model(candidate, key=key)
                    return Model(candidate)
            if count:
                cache.misses += 1
                telemetry.count("solver.cache.misses")
        hints = cache.hints() if cache is not None else None
        session = cache.assumptions if cache is not None else None
        retained = None
        if session is not None:
            reused = session.align(constraints)
            telemetry.count("solver.incremental.queries")
            telemetry.count("solver.incremental.reused_terms", reused)
            telemetry.histogram(
                "solver.incremental.reused_constraints").record(reused)
            retained = session.retained()
        try:
            model, snapshot = self.backend.search(
                constraints, budget, hints=hints, retained=retained)
        except (UnsatError, SolverTimeout) as exc:
            # an unsat proof (or even a timed-out search) completed
            # candidate-subtree refutations siblings can reuse; the
            # backend attached its harvest to the exception
            self._retain(session, constraints,
                         getattr(exc, "snapshot", None))
            raise
        self._retain(session, constraints, snapshot)
        if cache is not None:
            cache.record_model(model.assignment, key=key)
        return model

    @staticmethod
    def _retain(session, constraints: Sequence[Term], snapshot) -> None:
        """Feed one search's harvest back into the assumption stack."""
        if session is None or snapshot is None:
            return
        env, env_deps, satisfied, learned, skipped = snapshot
        if skipped:
            telemetry.count("solver.incremental.skipped_candidates",
                            skipped)
        session.extend(constraints, env, env_deps, satisfied, learned)

    def _verify_model(self, constraints: Sequence[Term],
                      assignment: Dict[str, int], budget: Budget) -> bool:
        """One capped three-valued pass: does ``assignment`` satisfy all?

        A failed check charges *nothing*: the cache tier must never turn
        a query that would have succeeded without it into a timeout, so
        only a verification that actually saves the search costs work.
        One evaluation pass is far cheaper than a search, so half the
        remaining budget is a generous cap.
        """
        scratch = Budget(max(1, budget.remaining() // 2),
                         "superset model check")
        try:
            ok = all(tv_eval(c, assignment, scratch) == 1
                     for c in constraints)
        except SolverTimeout:
            return False
        if ok:
            budget.charge(min(scratch.spent, budget.remaining()))
        return ok

    def is_feasible(self, constraints: Sequence[Term],
                    budget: Optional[Budget] = None) -> bool:
        """Satisfiability check; timeouts propagate (they mean 'stall')."""
        budget = budget if budget is not None else Budget(self.work_limit)
        cache = self.cache
        key = None
        if cache is not None:
            key = SolverCache.key(constraints)
            cached = cache.peek_feasible(key)
            if cached is not None:
                cache.hits += 1
                telemetry.count("solver.cache.hits")
                telemetry.event("solver.cache_hit", query="feasible",
                                tier="exact")
                return cached
            subsumed = cache.lookup_subsumed(key)
            if subsumed is not None:
                feasible, source = subsumed
                cache.hits += 1
                telemetry.count("solver.cache.hits")
                telemetry.event("solver.cache_hit", query="feasible",
                                tier=source)
                if source != "disk-exact":
                    telemetry.count("solver.cache.subsumption_hits")
                if source.startswith("disk"):
                    telemetry.count("solver.cache.disk_hits")
                    if source == "disk-exact":
                        telemetry.count("solver.cache.disk_hits_exact")
                    else:
                        telemetry.count("solver.cache.disk_hits_subsume")
                cache.store_feasible(key, feasible)  # promote to exact
                return feasible
            cache.misses += 1
            telemetry.count("solver.cache.misses")
            if self._probe_models(constraints, budget):
                cache.model_probe_hits += 1
                telemetry.count("solver.cache.model_probe_hits")
                telemetry.event("solver.cache_hit", query="feasible",
                                tier="model_probe")
                cache.store_feasible(key, True)
                return True
        with _metered("feasible", budget):
            try:
                self._solve(constraints, budget)
                feasible = True
            except UnsatError:
                feasible = False
        if cache is not None:
            cache.store_feasible(key, feasible)
        return feasible

    def _probe_models(self, constraints: Sequence[Term],
                      budget: Budget) -> bool:
        """Does a recently-found model already satisfy ``constraints``?

        Cost: at most one three-valued evaluation pass per recent model,
        capped at a fraction of the remaining budget (the scratch spend
        is then charged to the real budget, so probe work is accounted
        but can never cause the query to time out on its own).
        """
        scratch = Budget(max(1, budget.remaining() // _PROBE_BUDGET_DIVISOR),
                         "model probe")
        try:
            for model in self.cache.recent_models():
                if _satisfies(model, constraints, scratch):
                    budget.charge(scratch.spent)
                    return True
        except SolverTimeout:
            pass  # probe cap reached: fall back to the search
        budget.charge(min(scratch.spent, budget.remaining()))
        return False

    def feasible_values(self, term: Term, constraints: Sequence[Term],
                        limit: int = 8,
                        budget: Optional[Budget] = None) -> ValueEnumeration:
        """Up to ``limit`` distinct concrete values ``term`` may take.

        This is the per-access query ER issues for symbolic memory
        addresses (§3.2): it bounds the set of locations an access may
        touch.  Cost scales with the number of models enumerated and the
        complexity of the constraints — long write chains make each
        enumeration expensive, which is where stalls bite.

        The result is a :class:`ValueEnumeration`: a plain list of
        values plus an explicit ``complete`` flag.  ``complete`` is True
        only when the value set was provably exhausted; otherwise
        ``truncated_reason`` says whether the ``limit`` was hit or a
        model left the term unevaluable (an out-of-bounds read, say) —
        previously such truncation was silent.
        """
        budget = budget if budget is not None else Budget(self.work_limit)
        cache = self.cache
        key = None
        if cache is not None:
            key = SolverCache.key(constraints)
            cached = cache.lookup_values(term, key, limit)
            if cached is not None:
                telemetry.count("solver.cache.hits")
                telemetry.event("solver.cache_hit", query="values",
                                tier="exact")
                return cached
            telemetry.count("solver.cache.misses")
            persisted = cache.lookup_values_persistent(term, key, limit)
            if persisted is not None:
                enum, witnesses = persisted
                if self._verify_enumeration(term, constraints, enum,
                                            witnesses, budget):
                    # every persisted value re-proved against the live
                    # constraints, so a stale or poisoned disk tier can
                    # cost a wasted check but never inject a value
                    cache.disk_hits += 1
                    telemetry.count("solver.cache.disk_hits")
                    telemetry.count("solver.cache.disk_hits_values")
                    telemetry.event("solver.cache_hit", query="values",
                                    tier="disk")
                    cache.store_values(term, key, limit, enum,
                                       write_through=False)
                    return enum
        found: List[int] = []
        witnesses: List[Dict[str, int]] = []
        extra: List[Term] = []
        complete = False
        reason: Optional[str] = None
        with _metered("values", budget):
            while len(found) < limit:
                try:
                    model = self._solve(list(constraints) + extra, budget)
                except UnsatError:
                    complete = True  # no further value exists
                    break
                env = dict(model.assignment)
                for name in term.free_vars():
                    env.setdefault(name, 0)  # unconstrained bytes: 0
                value = tv_eval(term, env, budget)
                if value is None:
                    # the model leaves the term unevaluable; stopping
                    # here under-enumerates, so say so explicitly
                    reason = "unevaluable"
                    telemetry.count("solver.values.partial")
                    break
                found.append(value)
                witnesses.append(env)
                extra.append(cmp("ne", term, const(value), 64))
            else:
                reason = "limit"
        result = ValueEnumeration(found, complete=complete,
                                  truncated_reason=reason)
        if cache is not None:
            cache.store_values(term, key, limit, result, witnesses)
        return result

    def _verify_enumeration(self, term: Term, constraints: Sequence[Term],
                            enum: ValueEnumeration,
                            witnesses: List[Dict[str, int]],
                            budget: Budget) -> bool:
        """Re-prove a persisted enumeration before trusting it.

        Each value must come with a witness assignment that satisfies
        all live constraints *and* evaluates the term to that value —
        the enumeration analog of superset-model verification.  Like
        there, a failed check charges nothing (the disk tier must never
        turn a would-have-succeeded query into a timeout); only a check
        that actually replaces the enumeration loop costs work.
        """
        if len(witnesses) != len(enum):
            return False
        scratch = Budget(max(1, budget.remaining() // 2),
                         "persisted enumeration check")
        try:
            for value, witness in zip(enum, witnesses):
                env = dict(witness)
                for name in term.free_vars():
                    env.setdefault(name, 0)
                if any(tv_eval(c, env, scratch) != 1 for c in constraints):
                    return False
                if tv_eval(term, env, scratch) != value:
                    return False
        except SolverTimeout:
            return False
        budget.charge(min(scratch.spent, budget.remaining()))
        return True


class _Search:
    def __init__(self, constraints: List[Term], budget: Budget,
                 hints: Optional[Dict[str, int]] = None,
                 retained=None):
        self.budget = budget
        #: assumption-stack seed: unit assignments, satisfied constraints
        #: and learned conflicts proven for a prefix of this query hold
        #: for the whole query, so propagation starts from them, skips
        #: the satisfied set, and the DFS prunes the excluded values
        if retained is not None:
            self.env: Dict[str, int] = dict(retained.env)
            self.known_satisfied = retained.satisfied
            #: var -> {value: dep}; read-only (owned by the stack)
            self.excluded: Dict[str, Dict[int, int]] = retained.excluded
            #: highest constraint index each env entry depends on
            self.env_dep: Dict[str, int] = dict(retained.env_deps)
            #: conflicts learned by this search (depth-0 exhaustions)
            self.learned: Optional[Dict[str, Dict[int, int]]] = {}
        else:
            self.env = {}
            self.known_satisfied = frozenset()
            self.excluded = {}
            self.env_dep = {}
            self.learned = None  # learning off outside a session
        #: refutation accumulators for the candidate subtree being
        #: explored: the deepest constraint index any rejection used, and
        #: the shallowest speculative DFS depth any rejection read.  A
        #: subtree at depth d refuted with floor >= d never read the
        #: assignments above it, so its exhaustion is unconditional.
        self._acc = 0
        self._floor = _NO_FLOOR
        self._skipped = 0
        #: vars assigned before the DFS (retained + propagated); set
        #: definitively in :meth:`run` after propagation
        self._base_vars: frozenset = frozenset()
        #: DFS depth of each search variable; set in :meth:`run`
        self._pos: Dict[str, int] = {}
        #: post-propagation ``(env, satisfied)`` snapshot — taken before
        #: any speculative DFS assignment, for assumption-stack retention
        self.propagated = None
        #: warm-start assignment: tried first at every decision point
        self.hints: Dict[str, int] = hints or {}
        self.constraints: List[Term] = []
        #: first caller-list position of each deduped constraint; conflict
        #: deps are expressed in these positions so the assumption stack
        #: (which mirrors the raw caller list) can home them in a frame
        self._index: Dict[Term, int] = {}
        seen: Set[Term] = set()
        for pos, raw in enumerate(constraints):
            term = bool_term(raw)
            if term in seen:
                continue
            seen.add(term)
            self._index[term] = pos
            self.constraints.append(term)

    def harvest(self):
        """Assumption-stack payload: the post-propagation snapshot (with
        per-fact dependency indices) plus conflicts learned during the
        DFS and how many candidates retained conflicts let this search
        skip.  ``None`` outside a session, or until propagation
        completes (nothing sound to retain before that)."""
        if self.propagated is None or self.learned is None:
            return None
        env, satisfied = self.propagated
        env_deps = {name: dep for name, dep in self.env_dep.items()
                    if name in env}
        sat_deps = {term: self._constraint_dep(term) for term in satisfied}
        return env, env_deps, sat_deps, self.learned, self._skipped

    def run(self) -> Model:
        self._propagate()
        active = self._active_constraints()
        active_set = set(active)
        self.propagated = (
            dict(self.env),
            frozenset(c for c in self.constraints if c not in active_set))
        #: non-speculative vars: a rejection whose constraint reads only
        #: these (plus the candidate) is a fact about the query itself,
        #: not about the DFS assignments above it — learnable at any depth
        self._base_vars = frozenset(self.env)
        groups = self._word_groups(active)
        order = self._variable_order(active, groups)
        self._pos = {var: i for i, var in enumerate(order)}
        buckets = self._bucket_constraints(active, order)
        self._sources = self._candidate_sources(buckets)
        if not self._dfs(0, order, buckets, groups):
            raise UnsatError("no satisfying assignment")
        return Model(self.env)

    # -- propagation ---------------------------------------------------

    def _propagate(self) -> None:
        budget = self.budget
        changed = True
        while changed:
            changed = False
            #: (constraint, value, charge) of each evaluation this sweep
            sweep = []
            for constraint in self.constraints:
                if constraint in self.known_satisfied:
                    continue  # proven for a prefix: stays true here
                before = budget.spent
                value = tv_eval(constraint, self.env, budget)
                if value == 0:
                    raise UnsatError(f"constraint is false: {constraint!r}")
                sweep.append((constraint, value, budget.spent - before))
                if value is not None:
                    continue
                assignments = self._unit_assignments(constraint)
                dep = None
                for name, val in assignments.items():
                    if name not in self.env:
                        if self.learned is not None:
                            if dep is None:
                                dep = self._constraint_dep(constraint)
                            self.env_dep[name] = dep
                        self.env[name] = val
                        changed = True
        #: the last sweep assigned nothing, so every evaluation in it saw
        #: the final env; :meth:`_active_constraints` replays it
        self._last_sweep = sweep

    def _unit_assignments(self, constraint: Term) -> Dict[str, int]:
        """var assignments forced by an ``lhs == const`` constraint."""
        if constraint.op != "eq":
            return {}
        lhs, rhs, opwidth = constraint.args
        if not rhs.is_const:
            return {}
        out: Dict[str, int] = {}
        if _invert_unique(lhs, mask(rhs.value, opwidth), self.env, out,
                          self.budget):
            return out
        return {}

    # -- conflict dependency tracking ------------------------------------

    def _constraint_dep(self, constraint: Term) -> int:
        """Highest caller-list index a refutation by ``constraint``
        depends on: the constraint's own position, plus the positions
        backing any retained/propagated env values it reads."""
        dep = self._index.get(constraint, 0)
        if self.env_dep:
            for var in constraint.free_vars():
                d = self.env_dep.get(var)
                if d is not None and d > dep:
                    dep = d
        return dep

    def _note_reject(self, constraint: Term) -> None:
        """A candidate (or subtree) was rejected by ``constraint``: fold
        its dependency and speculative floor into the accumulators of the
        subtree being refuted, and — when exactly one speculative
        variable was involved — learn the rejection as a standalone
        ``var != value`` conflict immediately.

        The direct case is sound because every free variable of a bucket
        constraint is assigned when it is checked: its verdict is a pure
        function of those values, the non-speculative ones are forced by
        the constraints (dep-tracked), so any model of the query must
        differ on the one speculative variable."""
        if self.learned is None:
            return
        dep = self._index.get(constraint, 0)
        floor = _NO_FLOOR
        speculative = None
        multi = False
        for var in constraint.free_vars():
            if var in self._base_vars:
                d = self.env_dep.get(var)
                if d is not None and d > dep:
                    dep = d
            else:
                if speculative is None:
                    speculative = var
                elif var != speculative:
                    multi = True
                p = self._pos.get(var)
                if p is not None and p < floor:
                    floor = p
        if dep > self._acc:
            self._acc = dep
        if floor < self._floor:
            self._floor = floor
        if speculative is None or multi:
            return
        value = self.env.get(speculative)
        if value is None:
            return
        values = self.learned.setdefault(speculative, {})
        prev = values.get(value)
        if prev is None or dep < prev:
            values[value] = dep

    # -- search ----------------------------------------------------------

    def _active_constraints(self) -> List[Term]:
        """The constraints propagation left unknown, charged as
        evaluating each one again under the final env would be.

        Propagation's last sweep made exactly those evaluations, so its
        values and charges are replayed.  When the sum would cross the
        limit, the charges are replayed one by one and the constraint
        that crosses it is evaluated again, so the timeout lands where
        a re-evaluation's would, with the same ``spent``.
        """
        budget = self.budget
        sweep = self._last_sweep
        total = sum(charge for _, _, charge in sweep)
        if budget.spent + total <= budget.limit:
            budget.charge(total)
        else:
            for constraint, _value, charge in sweep:
                if budget.spent + charge > budget.limit:
                    tv_eval(constraint, self.env, budget)  # times out
                budget.charge(charge)
        return [constraint for constraint, value, _ in sweep
                if value is None]

    def _word_groups(self, active: List[Term]) -> Dict[str, Tuple]:
        """Map each grouped variable to its word group.

        A *word group* is a maximal ``concat`` of distinct free byte
        variables (a multi-byte input field such as a length).  Deciding
        a group's bytes together, guided by word-level candidates, avoids
        the exponential byte-wise search over length fields.

        Returns ``{var: (names_tuple, concat_term)}``.
        """
        groups: Dict[str, Tuple] = {}
        for node in iter_nodes(active):
            if node.op != "concat":
                continue
            names = []
            for part in node.args:
                if part.op == "var" and part.args[0] not in self.env:
                    names.append(part.args[0])
                else:
                    names = None
                    break
            if not names or len(set(names)) != len(names):
                continue
            key = tuple(names)
            for name in names:
                # keep the widest group a var appears in
                current = groups.get(name)
                if current is None or len(current[0]) < len(key):
                    groups[name] = (key, node)
        # drop inconsistent overlaps: every member must agree on the group
        consistent = {}
        for name, (key, node) in groups.items():
            if all(groups.get(n, (None,))[0] == key for n in key):
                consistent[name] = (key, node)
        return consistent

    def _variable_order(self, active: List[Term],
                        groups: Dict[str, Tuple] = None) -> List[str]:
        groups = groups or {}
        order: List[str] = []
        seen: Set[str] = set(self.env)
        for constraint in active:
            for name in sorted(constraint.free_vars()):
                if name in seen:
                    continue
                if name in groups:
                    # keep group members contiguous, in concat order
                    for member in groups[name][0]:
                        if member not in seen:
                            seen.add(member)
                            order.append(member)
                else:
                    seen.add(name)
                    order.append(name)
        return order

    def _bucket_constraints(self, active: List[Term],
                            order: List[str]) -> List[List[Term]]:
        position = {name: i for i, name in enumerate(order)}
        buckets: List[List[Term]] = [[] for _ in order]
        for constraint in active:
            free = [position[n] for n in constraint.free_vars()
                    if n in position]
            if not free:
                # depends only on pre-assigned vars but still unknown
                # (e.g. out-of-bounds read): treat as unsatisfiable later
                buckets and buckets[0].append(constraint)
                continue
            buckets[max(free)].append(constraint)
        return buckets

    def _candidate_sources(self, buckets: List[List[Term]]
                           ) -> Dict[str, List[Term]]:
        """For each DFS variable, the constraints in its bucket and the
        deeper ones that mention it, in bucket order: where
        :meth:`_candidates` derives its values.  A constraint sits in the
        bucket of its deepest DFS variable, so every DFS variable it
        mentions is at or above that bucket."""
        sources: Dict[str, List[Term]] = {name: [] for name in self._pos}
        for bucket in buckets:
            for constraint in bucket:
                for name in constraint.free_vars():
                    if name in sources:
                        sources[name].append(constraint)
        return sources

    def _dfs(self, depth: int, order: List[str],
             buckets: List[List[Term]], groups: Dict[str, Tuple]) -> bool:
        if depth == len(order):
            return True
        name = order[depth]
        group = groups.get(name)
        if group is not None and group[0][0] == name:
            names, node = group
            if all(order[depth + i] == n for i, n in enumerate(names)):
                if self._dfs_group(depth, order, buckets, groups, names,
                                   node):
                    return True
                # word-level candidates failed: fall through to the
                # byte-wise search as a last resort
        excluded = self.excluded.get(name)
        learning = self.learned is not None
        for value in self._candidates(name):
            dep = excluded.get(value) if excluded is not None else None
            if dep is None and learning:
                # conflicts learned earlier in this same search apply too
                mine = self.learned.get(name)
                if mine is not None:
                    dep = mine.get(value)
            if dep is not None:
                # the conflict proves no model has name=value; skipping
                # the subtree keeps the search complete, and an
                # exhaustion that relies on the skip inherits its
                # dependency (the fact itself reads no DFS assignment,
                # so the floor is untouched)
                if learning and dep > self._acc:
                    self._acc = dep
                self._skipped += 1
                continue
            self.budget.charge(1)
            self.env[name] = value
            if learning:
                # fresh accumulators for the subtree under name=value
                outer_acc, outer_floor = self._acc, self._floor
                self._acc, self._floor = 0, _NO_FLOOR
            ok = True
            for constraint in buckets[depth]:
                if tv_eval(constraint, self.env, self.budget) != 1:
                    ok = False
                    self._note_reject(constraint)
                    break
            if ok and self._dfs(depth + 1, order, buckets, groups):
                return True
            del self.env[name]
            if learning:
                if self._floor >= depth:
                    # the subtree under name=value is exhausted without
                    # reading any assignment above this depth: the
                    # refutation holds for the query itself (constraints
                    # up to self._acc) — a monotone fact any extension
                    # of that prefix can reuse
                    values = self.learned.setdefault(name, {})
                    prev = values.get(value)
                    if prev is None or self._acc < prev:
                        values[value] = self._acc
                self._acc = max(outer_acc, self._acc)
                self._floor = min(outer_floor, self._floor)
        return False

    def _dfs_group(self, depth: int, order: List[str],
                   buckets: List[List[Term]], groups: Dict[str, Tuple],
                   names: Tuple[str, ...], node: Term) -> bool:
        """Try word-level candidate values for a whole concat group."""
        span = len(names)
        learning = self.learned is not None
        check_excluded = learning or any(n in self.excluded for n in names)
        for word in self._word_candidates(node, names, buckets, depth):
            if check_excluded:
                dep = self._excluded_word_dep(names, word)
                if dep is not None:
                    # some member byte is a retained conflict: the whole
                    # word is provably model-free
                    if learning and dep > self._acc:
                        self._acc = dep
                    self._skipped += 1
                    continue
            self.budget.charge(span)
            for i, member in enumerate(names):
                self.env[member] = (word >> (8 * i)) & 0xFF
            ok = True
            for d in range(depth, depth + span):
                for constraint in buckets[d]:
                    if tv_eval(constraint, self.env, self.budget) != 1:
                        ok = False
                        self._note_reject(constraint)
                        break
                if not ok:
                    break
            if ok and self._dfs(depth + span, order, buckets, groups):
                return True
            for member in names:
                del self.env[member]
        return False

    def _excluded_word_dep(self, names: Tuple[str, ...],
                           word: int) -> Optional[int]:
        for i, member in enumerate(names):
            byte = (word >> (8 * i)) & 0xFF
            for table in (self.excluded, self.learned):
                values = table.get(member) if table else None
                if values is not None:
                    dep = values.get(byte)
                    if dep is not None:
                        return dep
        return None

    def _word_candidates(self, node: Term, names: Tuple[str, ...],
                         buckets: List[List[Term]],
                         depth: int) -> Iterable[int]:
        """Word-level candidates for a concat group, from its constraints."""
        derived: List[int] = []
        seen: Set[int] = set()
        width_mask = (1 << (8 * len(names))) - 1
        name_set = set(names)

        def push(value: int) -> None:
            value &= width_mask
            if value not in seen:
                seen.add(value)
                derived.append(value)

        if all(n in self.hints for n in names):
            word = 0
            for i, n in enumerate(names):
                word |= (self.hints[n] & 0xFF) << (8 * i)
            push(word)  # warm start: what worked last time, first
        for bucket in buckets[depth:]:
            for constraint in bucket:
                if not (constraint.free_vars() & name_set):
                    continue
                if constraint.op not in ("eq", "ne", "ult", "ule", "ugt",
                                         "uge", "slt", "sle", "sgt", "sge"):
                    continue
                lhs, rhs, _w = constraint.args
                if rhs.is_const and lhs is node:
                    bound = rhs.value
                elif lhs.is_const and rhs is node:
                    bound = lhs.value
                else:
                    continue
                if constraint.op == "eq":
                    push(bound)
                elif constraint.op == "ne":
                    continue
                else:
                    push(bound)
                    push(bound + 1)
                    push(bound - 1)
        push(0)
        push(1)
        push(width_mask)
        yield from derived
        # small exhaustive tail for narrow groups only
        if len(names) == 1:
            for value in range(256):
                if value not in seen:
                    yield value

    def _candidates(self, name: str) -> Iterable[int]:
        derived: List[int] = []
        seen: Set[int] = set()
        hint = self.hints.get(name)
        if hint is not None:
            hint &= 0xFF
            seen.add(hint)
            derived.append(hint)  # warm start: last model's value first
        for constraint in self._sources[name]:
            for value in _derive_candidates(constraint, name, self.env,
                                            self.budget):
                value &= 0xFF
                if value not in seen:
                    seen.add(value)
                    derived.append(value)
        yield from derived
        for value in range(256):
            if value not in seen:
                yield value


# ----------------------------------------------------------------------
# model probes

def _satisfies(model: ProvenModel, constraints: Sequence[Term],
               budget: Budget) -> bool:
    """Is every constraint 1 under ``model``?  Charged exactly as
    evaluating them in order, stopping at the first that is not, would
    be charged.

    The prefix that ``model``'s earlier probes proved (matched by
    identity) is charged as one recorded sum and not evaluated.  When
    the sum would cross the limit, every constraint is evaluated, so the
    timeout lands on the same constraint with the same ``spent``.
    Constraints proved beyond the matched prefix become the model's
    proven prefix.
    """
    proven, charges = model.proven, model.charges
    same = list(map(is_, proven, constraints))
    matched = len(same) if all(same) else same.index(False)
    start = matched
    if start and budget.spent + charges[start - 1] <= budget.limit:
        budget.charge(charges[start - 1])
    else:
        start = 0
    done = charges[start - 1] if start else 0
    fresh: List[int] = []
    try:
        for constraint in constraints[start:]:
            before = budget.spent
            if tv_eval(constraint, model, budget) != 1:
                return False
            done += budget.spent - before
            fresh.append(done)
    finally:
        end = start + len(fresh)
        if end > matched:
            del proven[start:], charges[start:]
            proven.extend(constraints[start:end])
            charges.extend(fresh)
    return True


# ----------------------------------------------------------------------
# inversion / candidate derivation

def _invert_unique(term: Term, target: int, env: Dict[str, int],
                   out: Dict[str, int], budget: Budget) -> bool:
    """If ``term == target`` forces unique values for its free vars,
    record them in ``out`` and return True."""
    budget.charge(1)
    op = term.op
    if op == "var":
        out[term.args[0]] = target & ((1 << term.width) - 1)
        return True
    if op == "const":
        return term.args[0] == target
    if op == "concat":
        for i, part in enumerate(term.args):
            byte = (target >> (8 * i)) & 0xFF
            if part.is_const:
                if part.value != byte:
                    return False
            elif part.op == "var":
                out[part.args[0]] = byte
            else:
                return False
        extra = target >> (8 * len(term.args))
        return extra == 0
    if op in ("add", "sub", "xor") and len(term.args) == 3:
        lhs, rhs, opwidth = term.args
        lval = tv_eval(lhs, env, budget)
        rval = tv_eval(rhs, env, budget)
        if lval is not None and rval is None:
            return _invert_unique(rhs, _solve_rhs(op, lval, target, opwidth),
                                  env, out, budget)
        if rval is not None and lval is None:
            return _invert_unique(lhs, _solve_lhs(op, rval, target, opwidth),
                                  env, out, budget)
        return False
    if op == "trunc":
        inner, to_width = term.args
        if inner.width <= to_width:
            return _invert_unique(inner, target, env, out, budget)
        return False
    if op == "sext":
        inner, from_width = term.args
        return _invert_unique(inner, mask(target, from_width), env, out,
                              budget)
    return False


def _solve_rhs(op: str, lval: int, target: int, opwidth: int) -> int:
    """x such that op(lval, x) == target."""
    if op == "add":
        return mask(target - lval, opwidth)
    if op == "sub":
        return mask(lval - target, opwidth)
    return mask(target ^ lval, opwidth)  # xor


def _solve_lhs(op: str, rval: int, target: int, opwidth: int) -> int:
    """x such that op(x, rval) == target."""
    if op == "add":
        return mask(target - rval, opwidth)
    if op == "sub":
        return mask(target + rval, opwidth)
    return mask(target ^ rval, opwidth)  # xor


def _derive_candidates(constraint: Term, name: str, env: Dict[str, int],
                       budget: Budget) -> List[int]:
    """Heuristic candidate values for ``name`` from one constraint."""
    op = constraint.op
    if op == "eq":
        lhs, rhs, opwidth = constraint.args
        if rhs.is_const:
            return _candidates_from_eq(lhs, mask(rhs.value, opwidth), name,
                                       env, budget)
        return []
    if op in ("ult", "ule", "ugt", "uge"):
        lhs, rhs, opwidth = constraint.args
        if rhs.is_const and not lhs.is_const:
            bound, term = rhs.value, lhs
        elif lhs.is_const and not rhs.is_const:
            bound, term = lhs.value, rhs
        else:
            return []
        if name not in term.free_vars():
            return []
        # push the boundary values through the term structure (finds the
        # right byte of a multi-byte length field, inverts offsets, ...)
        out: List[int] = []
        for value in (bound, mask(bound + 1, opwidth),
                      mask(bound - 1, opwidth)):
            out.extend(_candidates_from_eq(term, value, name, env, budget))
        out.extend((0, 1, 0xFF))
        return out
    if op == "ne":
        return []
    return []


def _candidates_from_eq(term: Term, target: int, name: str,
                        env: Dict[str, int], budget: Budget) -> List[int]:
    budget.charge(1)
    op = term.op
    if op == "var":
        return [target] if term.args[0] == name else []
    if op == "concat":
        out = []
        for i, part in enumerate(term.args):
            if part.op == "var" and part.args[0] == name:
                out.append((target >> (8 * i)) & 0xFF)
        return out
    if op in ("add", "sub", "xor"):
        lhs, rhs, opwidth = term.args
        lval = tv_eval(lhs, env, budget)
        rval = tv_eval(rhs, env, budget)
        if lval is not None and name in rhs.free_vars():
            return _candidates_from_eq(
                rhs, _solve_rhs(op, lval, target, opwidth), name, env, budget)
        if rval is not None and name in lhs.free_vars():
            return _candidates_from_eq(
                lhs, _solve_lhs(op, rval, target, opwidth), name, env, budget)
        return []
    if op == "mul":
        # x * c == t with odd c: x = t * c^-1 (mod 2^w)
        lhs, rhs, opwidth = term.args
        if lhs.is_const and name in rhs.free_vars():
            factor = mask(lhs.value, opwidth)
            if factor & 1:
                inverse = pow(factor, -1, 1 << opwidth)
                return _candidates_from_eq(
                    rhs, mask(target * inverse, opwidth), name, env, budget)
        return []
    if op == "shl":
        # x << c == t: the low bits of t must be zero; x's low part is
        # t >> c (high bits of x are unconstrained — try zero)
        lhs, rhs, opwidth = term.args
        if rhs.is_const and name in lhs.free_vars():
            shift = mask(rhs.value, opwidth) & (opwidth - 1)
            if mask(target, opwidth) & ((1 << shift) - 1) == 0:
                return _candidates_from_eq(
                    lhs, mask(target, opwidth) >> shift, name, env, budget)
        return []
    if op == "lshr":
        lhs, rhs, opwidth = term.args
        if rhs.is_const and name in lhs.free_vars():
            shift = mask(rhs.value, opwidth) & (opwidth - 1)
            return _candidates_from_eq(
                lhs, mask(target << shift, opwidth), name, env, budget)
        return []
    if op == "or":
        lhs, rhs, opwidth = term.args
        if lhs.is_const and name in rhs.free_vars():
            k = lhs.value
            if target | k == target:
                return _candidates_from_eq(rhs, target, name, env, budget) + \
                    _candidates_from_eq(rhs, target & ~k & mask(~0, opwidth),
                                        name, env, budget) + \
                    [target, target & ~k & 0xFF]
        return []
    if op == "and":
        lhs, rhs, opwidth = term.args
        if lhs.is_const and name in rhs.free_vars():
            k = lhs.value
            if target & k == target:
                return [target & 0xFF, (target | (~k & 0xFF)) & 0xFF]
        return []
    if op == "trunc":
        return _candidates_from_eq(term.args[0], target, name, env, budget)
    if op == "sext":
        return _candidates_from_eq(term.args[0], mask(target, term.args[1]),
                                   name, env, budget)
    if op == "read":
        return _candidates_from_table_read(term, target, name, env, budget)
    return []


def _candidates_from_table_read(term: Term, target: int, name: str,
                                env: Dict[str, int],
                                budget: Budget) -> List[int]:
    """``table[f(var)] == target``: scan the table for matching content.

    This captures the parser/lookup pattern (keyword tables, translation
    tables) that dominates the SQLite/PHP-style workloads: when the
    array's content is concrete, the feasible indices are exactly the
    positions holding ``target``, and each yields a candidate for the
    index variable.
    """
    arr, index = term.args
    if name not in index.free_vars():
        return []
    node = arr
    while node.op == "store":
        st_index, st_value = node.args[1], node.args[2]
        if not st_index.is_const or not st_value.is_const:
            return []  # content not concrete: give up
        node = node.args[0]
    data = bytearray(node.args[1])
    redo = arr
    overrides = []
    while redo.op == "store":
        overrides.append((redo.args[1].value, redo.args[2].value))
        redo = redo.args[0]
    for idx, value in reversed(overrides):
        if 0 <= idx < len(data):
            data[idx] = value & 0xFF
    if len(data) > _MAX_SCAN_BYTES:
        return []
    budget.charge(len(data))
    candidates: List[int] = []
    for position, byte in enumerate(data):
        if byte != target:
            continue
        forced: Dict[str, int] = {}
        if _invert_unique(index, position, env, forced, budget) and \
                name in forced:
            candidates.append(forced[name])
        if len(candidates) >= 16:
            break
    return candidates
