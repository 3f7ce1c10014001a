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
from .terms import Term, bool_term, cmp, const

#: Give up deriving candidates from arrays bigger than this.
_MAX_SCAN_BYTES = 4096
#: Model probes may spend at most this fraction of the remaining budget,
#: so a failed probe can never turn a would-have-succeeded query into a
#: timeout.
_PROBE_BUDGET_DIVISOR = 4

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
                    # smuggle in a bad model; only the memory window
                    # answers by subsumption, the disk tier by exact key
                    if source == "memory":
                        cache.subsumption_hits += 1
                        telemetry.count("solver.cache.subsumption_hits")
                    else:
                        telemetry.count("solver.cache.disk_hits")
                        telemetry.count("solver.cache.disk_hits_exact")
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
        model = self.backend.search(constraints, budget, hints=hints)
        if cache is not None:
            cache.record_model(model.assignment, key=key)
        return model

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
            feasible = cache.lookup_subsumed(key)
            if feasible is not None:
                cache.hits += 1
                telemetry.count("solver.cache.hits")
                telemetry.event("solver.cache_hit", query="feasible",
                                tier="disk")
                telemetry.count("solver.cache.disk_hits")
                telemetry.count("solver.cache.disk_hits_exact")
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
    def __init__(self, constraints: Iterable[Term], budget: Budget,
                 hints: Optional[Dict[str, int]] = None):
        self.budget = budget
        self.env: Dict[str, int] = {}
        #: warm-start assignment: tried first at every decision point
        self.hints: Dict[str, int] = hints or {}
        #: the constraints, deduped in first-appearance order
        self.constraints: List[Term] = list(
            dict.fromkeys(map(bool_term, constraints)))

    def run(self) -> Model:
        self._propagate()
        active = self._active_constraints()
        groups = self._word_groups(active)
        order = self._variable_order(active, groups)
        buckets = self._bucket_constraints(active, order)
        self._sources = self._candidate_sources(buckets, order)
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
                before = budget.spent
                value = tv_eval(constraint, self.env, budget)
                if value == 0:
                    raise UnsatError(f"constraint is false: {constraint!r}")
                sweep.append((constraint, value, budget.spent - before))
                if value is not None:
                    continue
                for name, val in self._unit_assignments(constraint).items():
                    if name not in self.env:
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
        env = self.env
        # each constraint's concat nodes of vars, in the order one
        # iter_nodes(active) walk meets them: it pops the constraints
        # last first, and finishes each one's nodes before the next
        seen: Set[int] = set()
        for constraint in reversed(active):
            for node in constraint.word_nodes():
                if id(node) in seen:
                    continue
                seen.add(id(node))
                names = [part.args[0] for part in node.args]
                if any(name in env for name in names) or \
                        len(set(names)) != len(names):
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
            for name in constraint.sorted_vars():
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
            free = [position[n] for n in constraint.sorted_vars()
                    if n in position]
            if not free:
                # depends only on pre-assigned vars but still unknown
                # (e.g. out-of-bounds read): treat as unsatisfiable later
                buckets and buckets[0].append(constraint)
                continue
            buckets[max(free)].append(constraint)
        return buckets

    def _candidate_sources(self, buckets: List[List[Term]],
                           order: List[str]) -> Dict[str, List[Term]]:
        """For each DFS variable, the constraints in its bucket and the
        deeper ones that mention it, in bucket order: where
        :meth:`_candidates` derives its values.  A constraint sits in the
        bucket of its deepest DFS variable, so every DFS variable it
        mentions is at or above that bucket."""
        sources: Dict[str, List[Term]] = {name: [] for name in order}
        for bucket in buckets:
            for constraint in bucket:
                for name in constraint.sorted_vars():
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
        for value in self._candidates(name):
            self.budget.charge(1)
            self.env[name] = value
            ok = True
            for constraint in buckets[depth]:
                if tv_eval(constraint, self.env, self.budget) != 1:
                    ok = False
                    break
            if ok and self._dfs(depth + 1, order, buckets, groups):
                return True
            del self.env[name]
        return False

    def _dfs_group(self, depth: int, order: List[str],
                   buckets: List[List[Term]], groups: Dict[str, Tuple],
                   names: Tuple[str, ...], node: Term) -> bool:
        """Try word-level candidate values for a whole concat group."""
        span = len(names)
        for word in self._word_candidates(node, names, buckets, depth):
            self.budget.charge(span)
            for i, member in enumerate(names):
                self.env[member] = (word >> (8 * i)) & 0xFF
            ok = True
            for d in range(depth, depth + span):
                for constraint in buckets[d]:
                    if tv_eval(constraint, self.env, self.budget) != 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok and self._dfs(depth + span, order, buckets, groups):
                return True
            for member in names:
                del self.env[member]
        return False

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
    position = data.find(target) if 0 <= target <= 0xFF else -1
    while position >= 0:
        forced: Dict[str, int] = {}
        if _invert_unique(index, position, env, forced, budget) and \
                name in forced:
            candidates.append(forced[name])
            if len(candidates) >= 16:
                break
        position = data.find(target, position + 1)
    return candidates
