"""Exception hierarchy shared across the ER library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class IRError(ReproError):
    """Malformed IR: parse errors, verifier failures, unknown names."""


class IRParseError(IRError):
    """Raised by the textual IR parser, with line information."""

    def __init__(self, message: str, line_no: int = 0, line: str = ""):
        self.line_no = line_no
        self.line = line
        if line_no:
            message = f"line {line_no}: {message}: {line.strip()!r}"
        super().__init__(message)


class InterpError(ReproError):
    """Internal interpreter error (not a guest-program failure)."""


class GuestFailure(ReproError):
    """A failure in the *interpreted* program (crash, assert, abort).

    This is the event ER exists to reproduce.  Carries a
    :class:`repro.interp.failures.FailureInfo` describing the failure.
    """

    def __init__(self, info):
        self.info = info
        super().__init__(str(info))


class TraceError(ReproError):
    """Trace encoding/decoding problem (corrupt packets, bad stream)."""


class TraceTruncatedError(TraceError):
    """The ring buffer overflowed and the start of the trace was lost."""


class SolverError(ReproError):
    """Internal solver error (malformed terms, unsupported ops)."""


class SolverTimeout(SolverError):
    """The solver exhausted its work budget: the symbolic-execution stall.

    This is the trigger for key-data-value selection in ER.
    """

    def __init__(self, work_spent: int, work_limit: int, context: str = ""):
        self.work_spent = work_spent
        self.work_limit = work_limit
        self.context = context
        super().__init__(
            f"solver timeout after {work_spent} work units "
            f"(limit {work_limit}){': ' + context if context else ''}"
        )


class UnsatError(SolverError):
    """The path constraint is unsatisfiable (trace/program mismatch)."""


class SymexError(ReproError):
    """Shepherded symbolic execution diverged from the recorded trace."""


class TraceDivergence(SymexError):
    """Symbolic execution could not follow the recorded control flow."""


class ReconstructionError(ReproError):
    """The iterative reconstruction loop could not reproduce the failure."""
