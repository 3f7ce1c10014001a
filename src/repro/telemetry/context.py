"""Cross-process trace identity: one tree out of many registries.

Every :class:`~repro.telemetry.registry.Telemetry` registry owns a
``trace_id`` and stamps each span with a ``span_id``/``parent_id``
pair.  When work crosses a process boundary (``repro.parallel.fan_out``,
which batch runs and Table 1 share), the parent captures a
:class:`TraceContext` — trace id, the currently open span's id, and the
parent timeline's origin in wall-clock terms — and passes it to every
task as an argument; the task's registry then

* adopts the parent's ``trace_id`` (worker spans join the same trace),
* parents its root spans on the handoff span (the tree stays linked
  across the ``ProcessPoolExecutor`` boundary), and
* aligns its event clock: worker timestamps are rebased so every
  process reports ``ts`` relative to the *root* registry's epoch, which
  makes merged streams directly comparable and exportable as one
  timeline.

The context is a frozen dataclass of scalars — picklable as a task
argument and JSON-serializable for anything that needs to cross a wire
instead of a fork.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["TraceContext", "new_trace_id"]


def new_trace_id() -> str:
    """A fresh 64-bit trace identifier (16 hex chars)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The serializable handoff record for cross-process tracing.

    ``wall_origin`` is the parent timeline's zero point expressed as a
    wall-clock (``time.time()``) instant: a worker registry subtracts
    it from its own start time to learn how far into the parent's
    timeline it was born, and offsets every emitted ``ts`` by that —
    monotonic clocks are per-process, but the wall clock is shared, so
    this aligns them at handoff.  ``None`` means "do not align" (the
    worker keeps its own epoch).
    """

    trace_id: str
    span_id: Optional[str] = None
    wall_origin: Optional[float] = None

    def to_dict(self) -> Dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "wall_origin": self.wall_origin}

    @classmethod
    def from_dict(cls, data: Dict) -> "TraceContext":
        return cls(trace_id=data["trace_id"],
                   span_id=data.get("span_id"),
                   wall_origin=data.get("wall_origin"))
