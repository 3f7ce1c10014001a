"""Process-wide telemetry for the ER pipeline.

Counters, gauges, and histograms aggregate in a :class:`Telemetry`
registry; nestable timed spans and structured events stream to a
pluggable sink (:class:`NullSink` by default — near-zero overhead,
:class:`MemorySink` for tests, :class:`JsonlSink` for
``repro reproduce --telemetry out.jsonl``).

Library code addresses the *current* registry through the module-level
helpers so a CLI run or a test can swap in a fresh one::

    from repro import telemetry

    with telemetry.span("symex.run", iteration=i):
        ...
    telemetry.count("solver.timeouts")

    # a scoped registry for one run
    with telemetry.scoped(telemetry.Telemetry(JsonlSink(path))) as tel:
        ...
"""

from __future__ import annotations

from contextlib import contextmanager

from .context import TraceContext, new_trace_id
from .metrics import Counter, Gauge, Histogram
from .registry import Span, Telemetry
from .sinks import (NULL_SINK, JsonlSink, MemorySink, NullSink, Sink,
                    TeeSink, read_jsonl)
from .stats import (final_snapshot, iteration_rows, overhead_attribution,
                    render_stats)
from .traceexport import build_trace, validate_trace, write_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "Telemetry",
    "TraceContext",
    "new_trace_id",
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "TeeSink",
    "NULL_SINK",
    "read_jsonl",
    "iteration_rows",
    "final_snapshot",
    "overhead_attribution",
    "render_stats",
    "build_trace",
    "write_trace",
    "validate_trace",
    "get",
    "set_current",
    "scoped",
    "span",
    "event",
    "count",
    "counter",
    "gauge",
    "histogram",
    "current_context",
]

#: the process-wide default registry (null sink: metrics only)
_current = Telemetry()


def get() -> Telemetry:
    """The current process-wide registry."""
    return _current


def set_current(telemetry: Telemetry) -> Telemetry:
    """Replace the current registry; returns the previous one."""
    global _current
    previous = _current
    _current = telemetry
    return previous


@contextmanager
def scoped(telemetry: Telemetry):
    """Temporarily install ``telemetry`` as the current registry."""
    previous = set_current(telemetry)
    try:
        yield telemetry
    finally:
        set_current(previous)


# -- convenience passthroughs to the current registry -------------------

def span(name: str, **attrs) -> Span:
    return _current.span(name, **attrs)


def event(name: str, **fields) -> None:
    _current.event(name, **fields)


def count(name: str, amount: int = 1) -> None:
    _current.count(name, amount)


def counter(name: str) -> Counter:
    return _current.counter(name)


def gauge(name: str) -> Gauge:
    return _current.gauge(name)


def histogram(name: str) -> Histogram:
    return _current.histogram(name)


def current_context() -> TraceContext:
    """The current registry's handoff record for spawning a worker."""
    return _current.trace_context()
