"""The solver's evaluations before it replayed what it had proved.

``probe_models`` is ``Solver._probe_models`` as it was: every recent
model is evaluated against every constraint, in order.  ``satisfies`` is
its per-model pass.  ``active_constraints`` is ``_Search``'s
re-evaluation of every constraint after propagation.  The solver now
replays recorded charges instead (a model's proven constraint prefix,
propagation's last sweep), and these are the references the replays
must match charge for charge: monkeypatch the two methods with these
functions to get the re-evaluating solver.
"""

from repro.errors import SolverTimeout, UnsatError
from repro.solver import solver as S
from repro.solver.budget import Budget


def satisfies(env, constraints, budget):
    """Is every constraint 1 under ``env``?  Stops at the first that
    is not."""
    return all(S.tv_eval(c, env, budget) == 1 for c in constraints)


def probe_models(self, constraints, budget):
    """Drop-in for ``Solver._probe_models``."""
    scratch = Budget(max(1, budget.remaining() // S._PROBE_BUDGET_DIVISOR),
                     "model probe")
    try:
        for env in self.cache.recent_models():
            if satisfies(env, constraints, scratch):
                budget.charge(scratch.spent)
                return True
    except SolverTimeout:
        pass  # probe cap reached: fall back to the search
    budget.charge(min(scratch.spent, budget.remaining()))
    return False


def active_constraints(self):
    """Drop-in for ``_Search._active_constraints``."""
    active = []
    for constraint in self.constraints:
        if constraint in self.known_satisfied:
            continue  # satisfied under a retained prefix env
        value = S.tv_eval(constraint, self.env, self.budget)
        if value == 0:
            raise UnsatError(f"constraint is false: {constraint!r}")
        if value is None:
            active.append(constraint)
    return active
