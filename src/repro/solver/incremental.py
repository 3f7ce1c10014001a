"""Assumption-stack incremental solving across sibling queries (unused).

Nothing in the package builds a stack: the solver learns no conflicts,
so every query is solved from scratch on the calibrated work budget.
The module stays importable only because the layer benchmark's
``ENTRY_POINTS`` name :meth:`AssumptionStack.align`,
:meth:`~AssumptionStack.extend` and :meth:`~AssumptionStack.retained`;
it goes with those rows.

Shepherded symbolic execution issues its solver queries over a
constraint list that grows by appends, and the gap-recovery DFS
re-issues almost-identical lists for sibling decisions along one
prefix: flip one late gap bit and every query before the flip is
verbatim the previous attempt's.  Re-solving that shared prefix from
scratch for every sibling — re-deriving the same unit propagations and
re-exhausting the same dead candidate subtrees — is the dominant
avoidable cost of the search.

The :class:`AssumptionStack` is the classic incremental-solver answer
(push/pop of assumptions with retained learned facts), restated for
this solver's propagation + candidate-DFS engine.  The stack mirrors
the caller's constraint list, and every retained fact carries the
**dependency index** of the last constraint its derivation used:

* **unit assignments** propagation forced (``var = value``),
* constraints proven **satisfied** under them, and
* **learned conflicts** — ``var != value`` facts proven by candidate
  rejection or complete subtree exhaustion during the DFS.

:meth:`align` diffs the next query's list against the stack and drops
exactly the facts whose dependency falls beyond the common prefix — the
push/pop protocol is implicit, and a fact derived from early constraints
survives any number of late-suffix replacements.  The survivors seed the
next search (:meth:`retained`): retained assignments pre-populate the
environment, satisfied constraints are skipped, and conflicts prune
whole candidate subtrees — only the delta is genuinely re-solved.

Soundness rests on monotonicity.  A unit assignment forced by
constraints ``[0, dep]`` is forced by every list extending that prefix;
a constraint that three-valued-evaluates to 1 under those assignments
stays 1 under every extension; and a refutation of ``var = value`` that
used only constraints ``[0, dep]`` (plus assignments they force) holds
for every extension — so skipping the candidate can never change which
model a search finds: the skipped subtree provably contains none.
Search state is snapshotted *after* propagation, so speculative DFS
assignments are never retained; conflicts are recorded only from
completed (set-exhaustive) rejections, so even a timed-out or unsat
search contributes sound facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .. import telemetry
from .terms import Term

__all__ = ["AssumptionStack", "Retained"]


@dataclass
class Retained:
    """Seed state handed to a search aligned on this stack's prefix.

    ``excluded`` maps ``var -> {value: dep}``: assignments proven
    impossible, tagged with the constraint index their refutation
    depended on (a search that *skips* one folds its ``dep`` into any
    conflict it learns on top).  ``env_deps`` bounds each retained unit
    assignment the same way.
    """

    env: Dict[str, int] = field(default_factory=dict)
    satisfied: FrozenSet[Term] = frozenset()
    excluded: Dict[str, Dict[int, int]] = field(default_factory=dict)
    env_deps: Dict[str, int] = field(default_factory=dict)


class AssumptionStack:
    """Retained solver facts keyed to a growing constraint list.

    Every fact is indexed by the position of the deepest constraint its
    derivation used, so :meth:`align` can retain at *constraint*
    granularity: replacing the two probe terms at the tail of an
    80-constraint query invalidates only the facts that actually read
    them.
    """

    def __init__(self):
        #: the constraint list the retained state is valid for (raw
        #: caller terms, aligned positionally against incoming queries)
        self._terms: List[Term] = []
        #: forced unit assignments: name -> (value, dep)
        self.env: Dict[str, Tuple[int, int]] = {}
        #: constraints known satisfied under them: bool-term -> dep
        self.satisfied: Dict[Term, int] = {}
        #: learned conflicts: name -> {value: dep}
        self.excluded: Dict[str, Dict[int, int]] = {}
        self.pushes = 0
        self.pops = 0
        #: constraints answered from retained state instead of re-solved
        self.reused_terms = 0
        #: conflicts learned (lifetime) / dropped as their deps diverged
        self.conflicts_learned = 0
        self.conflicts_dropped = 0

    def __len__(self) -> int:
        return len(self._terms)

    # -- the push/pop protocol (implicit in the list diff) ---------------

    def align(self, constraints: Sequence[Term]) -> int:
        """Truncate to the common prefix with ``constraints``.

        Drops every fact whose dependency index falls beyond the prefix
        (its derivation may have read a replaced constraint); everything
        else survives verbatim.  Returns the retained prefix length.
        """
        limit = min(len(self._terms), len(constraints))
        common = 0
        while common < limit and self._terms[common] == constraints[common]:
            common += 1
        if common < len(self._terms):
            del self._terms[common:]
            self._drop_beyond(common)
            self.pops += 1
        self.reused_terms += common
        return common

    def _drop_beyond(self, common: int) -> None:
        for name in [n for n, (_, dep) in self.env.items() if dep >= common]:
            del self.env[name]
        for term in [t for t, dep in self.satisfied.items()
                     if dep >= common]:
            del self.satisfied[term]
        dropped = 0
        for name in list(self.excluded):
            values = self.excluded[name]
            for value in [v for v, dep in values.items() if dep >= common]:
                del values[value]
                dropped += 1
            if not values:
                del self.excluded[name]
        self.conflicts_dropped += dropped

    def retained(self) -> Retained:
        """Seed state for a search over a superset of the stack prefix."""
        return Retained(
            env={name: value for name, (value, _) in self.env.items()},
            satisfied=frozenset(self.satisfied),
            excluded=self.excluded,
            env_deps={name: dep for name, (_, dep) in self.env.items()})

    def extend(self, constraints: Sequence[Term], env: Dict[str, int],
               env_deps: Dict[str, int], satisfied: Dict[Term, int],
               learned: Optional[Dict[str, Dict[int, int]]] = None) -> None:
        """Absorb one search's harvest over ``constraints`` (which the
        stack must currently be a prefix of, i.e. :meth:`align` ran on
        it).  ``env``/``satisfied`` are the post-propagation snapshot
        with per-fact dependency indices; ``learned`` the conflicts the
        DFS proved.  Deps are clamped to the list end, so a fact with no
        recorded dependency is simply dropped at the first divergence.
        """
        suffix = constraints[len(self._terms):]
        if suffix:
            self._terms.extend(suffix)
            self.pushes += 1
        if not self._terms:
            return
        top = len(self._terms) - 1
        for name, value in env.items():
            if name not in self.env:
                self.env[name] = (value, min(env_deps.get(name, top), top))
        for term, dep in satisfied.items():
            if term not in self.satisfied:
                self.satisfied[term] = min(dep, top)
        if learned:
            self._absorb_conflicts(learned, top)

    def _absorb_conflicts(self, learned: Dict[str, Dict[int, int]],
                          top: int) -> None:
        added = 0
        for name, values in learned.items():
            merged = self.excluded.setdefault(name, {})
            for value, dep in values.items():
                # an already-retained conflict was skipped by the search,
                # so it cannot have been re-learned with a better dep
                if value not in merged:
                    merged[value] = min(dep, top)
                    added += 1
            if not merged:
                del self.excluded[name]
        if added:
            self.conflicts_learned += added
            telemetry.count("solver.incremental.conflicts_learned", added)

    def __repr__(self):
        return (f"AssumptionStack({len(self._terms)} terms, "
                f"{len(self.env)} assignments, "
                f"{sum(len(v) for v in self.excluded.values())} conflicts)")
