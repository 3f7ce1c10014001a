"""Workload descriptors: the Table-1 bug suite's common shape.

Each workload packages a miniature application (built in the IR), the
hidden production input that triggers its bug, a benign performance
benchmark (Fig. 6), and the ER configuration used to reproduce it.

The applications are *structural* ports: a tokenizer+keyword-table SQL
front end for the SQLite bugs, a serializer with escape expansion for
PHP-74194, a thread pool with a shared connection table for memcached,
and so on — the same code patterns (symbolic write chains, large
lookup tables, length-field arithmetic) that make the real bugs hard
for symbolic execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..interp.env import Environment
from ..interp.failures import FailureKind
from ..ir.module import Module
from ..solver.budget import WORK_PER_SECOND


@dataclass
class Workload:
    """One Table-1 row: application, bug, inputs, and ER configuration."""

    name: str            # registry key, e.g. 'sqlite-7be932d'
    app: str             # display name, e.g. 'SQLite 3.27.0'
    bug_id: str          # upstream identifier
    bug_type: str        # Table-1 'Bug Type' column
    multithreaded: bool
    expected_kind: FailureKind
    build: Callable[[], Module]
    failing_env: Callable[[int], Environment]
    benign_env: Callable[[int], Environment]
    bench_name: str      # Table-1 'Performance Benchmark' column
    #: solver budget per query (the 30 s timeout analog), in work units
    work_limit: int = 2 * WORK_PER_SECOND
    max_occurrences: int = 20
    paper_occurrences: int = 0   # Table-1 '#Occur' for comparison
    paper_instrs: int = 0        # Table-1 '#Instr(x86_64)'

    _module: Optional[Module] = field(default=None, repr=False)

    def module(self) -> Module:
        """The built (and cached) application module.  Nothing changes a
        built module, so every caller shares this one."""
        if self._module is None:
            self._module = self.build()
        return self._module

    #: the old name of :meth:`module`, kept for the layer benchmark
    fresh_module = module
