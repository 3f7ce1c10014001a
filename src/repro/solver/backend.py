"""The search backend behind the budgeted solver.

:class:`ReferenceBackend` runs one :class:`~repro.solver.solver._Search`
(propagation + candidate-guided DFS in first-appearance variable order)
over one query.  ``search(constraints, budget, hints=None,
retained=None)`` returns ``(model, snapshot)`` or raises
:class:`~repro.errors.UnsatError` / :class:`~repro.errors.SolverTimeout`.
``snapshot`` is the post-propagation ``(env, env_deps, satisfied,
learned, skipped)`` harvest feeding the assumption stack (see
:mod:`repro.solver.incremental`); ``retained`` seeds the search from it.
Definitive failures carry the same harvest on the exception
(``exc.snapshot``): an unsat proof's learned conflicts are exactly the
expensive facts worth retaining for the sibling query.
"""

from __future__ import annotations

from ..errors import SolverTimeout, UnsatError
from .solver import _Search

__all__ = ["ReferenceBackend"]


class ReferenceBackend:
    """One complete `_Search` per query."""

    def search(self, constraints, budget, hints=None, retained=None):
        search = _Search(list(constraints), budget, hints=hints,
                         retained=retained)
        try:
            model = search.run()
        except (UnsatError, SolverTimeout) as exc:
            # a definitive refutation (and even a timed-out search's
            # completed subtrees) still proved retainable facts
            exc.snapshot = search.harvest()
            raise
        return model, search.harvest()
