"""Shared workload data: the case-folding table of the SQL tokenizer.

The SQLite workloads install it as a global and fold each input byte
through it, the way the real tokenizer calls ``tolower()``.
"""

from __future__ import annotations

from ..ir.builder import ModuleBuilder

#: name of the 256-byte lowercase-folding table global
CASE_TABLE = "case_fold_table"


def case_fold_bytes() -> bytes:
    """tolower() translation table: 'A'-'Z' fold to 'a'-'z'."""
    table = bytearray(range(256))
    for ch in range(ord("A"), ord("Z") + 1):
        table[ch] = ch + 32
    return bytes(table)


def add_case_table(b: ModuleBuilder) -> str:
    """Install the case-folding table global (used by the SQL tokenizer)."""
    b.module.add_global(CASE_TABLE, 256, case_fold_bytes())
    return CASE_TABLE
