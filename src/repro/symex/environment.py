"""Symbolic environment: non-determinism as fresh symbolic bytes.

Mirrors :class:`repro.interp.env.Environment`, but every byte read from a
stream (including the clock) becomes a fresh symbolic variable named
``stream#offset``.  The paper's extended POSIX model treats file content,
network packets and clock values the same way (§4).
"""

from __future__ import annotations

from typing import Dict, List

from ..solver import terms as T
from ..solver.model import input_var_name
from ..solver.terms import Term


class SymbolicEnvironment:
    """Produces symbolic input terms with stable per-byte names."""

    def __init__(self):
        self._cursors: Dict[str, int] = {}
        #: every var created, in creation order (for reporting)
        self.created: List[str] = []

    def read(self, stream: str, size: int) -> Term:
        """A ``size``-byte symbolic read: concat of fresh byte variables."""
        cursor = self._cursors.get(stream, 0)
        parts = []
        for i in range(size):
            name = input_var_name(stream, cursor + i)
            self.created.append(name)
            parts.append(T.var(name, 8))
        self._cursors[stream] = cursor + size
        return T.concat(parts)

    def copy(self) -> "SymbolicEnvironment":
        new = SymbolicEnvironment()
        new._cursors = dict(self._cursors)
        new.created = list(self.created)
        return new

    def bytes_consumed(self, stream: str) -> int:
        return self._cursors.get(stream, 0)
