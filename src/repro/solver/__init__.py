"""Bitvector/array constraint solver with explicit work budgets."""

from . import terms
from .backend import ReferenceBackend
from .budget import DEFAULT_WORK_LIMIT, WORK_PER_SECOND, Budget, UnlimitedBudget
from .cache import SolverCache, ValueEnumeration
from .diskcache import DiskSolverCache
from .evaluator import tv_eval
from .model import Model, input_var_name, parse_var_name
from .solver import Solver
from .terms import (Term, TermSpace, clear_term_cache, deserialize_term,
                    serialize_term, term_digest, term_scope)

__all__ = [
    "terms",
    "Term",
    "TermSpace",
    "term_scope",
    "clear_term_cache",
    "serialize_term",
    "deserialize_term",
    "term_digest",
    "SolverCache",
    "DiskSolverCache",
    "ValueEnumeration",
    "Budget",
    "UnlimitedBudget",
    "DEFAULT_WORK_LIMIT",
    "WORK_PER_SECOND",
    "tv_eval",
    "Model",
    "input_var_name",
    "parse_var_name",
    "Solver",
    "ReferenceBackend",
]
