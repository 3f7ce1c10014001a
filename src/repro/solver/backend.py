"""The search backend behind the budgeted solver.

:class:`ReferenceBackend` runs one :class:`~repro.solver.solver._Search`
(propagation + candidate-guided DFS in first-appearance variable order)
over one query.  ``search(constraints, budget, hints=None)`` returns the
model or raises :class:`~repro.errors.UnsatError` /
:class:`~repro.errors.SolverTimeout`.
"""

from __future__ import annotations

from .solver import _Search

__all__ = ["ReferenceBackend"]


class ReferenceBackend:
    """One complete `_Search` per query."""

    def search(self, constraints, budget, hints=None):
        return _Search(constraints, budget, hints=hints).run()
