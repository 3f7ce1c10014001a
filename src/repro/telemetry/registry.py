"""The telemetry registry: metrics, nestable timed spans, event stream.

One :class:`Telemetry` instance aggregates everything observable about a
run of the ER pipeline:

* **metrics** — named :class:`~repro.telemetry.metrics.Counter` /
  ``Gauge`` / ``Histogram`` objects, created on first use and read back
  via :meth:`Telemetry.snapshot`;
* **spans** — ``with telemetry.span("symex.run", iteration=3):`` times a
  pipeline stage, feeds a per-name duration histogram, and (when a sink
  is attached) emits a structured ``span`` event carrying its nesting
  depth, parent, and trace identity; and
* **events** — ``telemetry.event("production.ring_wrap", bytes=...)``
  point records, forwarded to the sink.

Every registry belongs to a *trace*: spans get ``span_id``/``parent_id``
and carry the registry's ``trace_id``, and a worker registry built from
a parent's :class:`~repro.telemetry.context.TraceContext` joins the
parent's trace — its root spans parent on the handoff span and its event
clock is rebased onto the parent's timeline (see :mod:`.context`).

The process-wide current registry lives in :mod:`repro.telemetry`
(module functions ``get`` / ``set_current`` / ``scoped``); library code
reaches it through those so the CLI and tests can swap in a fresh
registry per run.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, Iterable, List, Optional

from .context import TraceContext, new_trace_id
from .metrics import Counter, Gauge, Histogram
from .sinks import NULL_SINK, Sink

__all__ = ["Telemetry", "Span"]

#: per-process registry numbering; keeps span ids unique when several
#: registries coexist in one process (serial batch, tests)
_REGISTRY_IDS = itertools.count(1)


class Span:
    """One timed, attributed region; returned by :meth:`Telemetry.span`.

    Usable only as a context manager.  After exit, :attr:`seconds` holds
    the measured wall time — callers that want the number (e.g. the
    reconstructor's per-iteration timeline) keep the object around::

        with telemetry.span("trace.decode", bytes=n) as sp:
            ...
        record.phase_seconds["decode"] = sp.seconds

    ``span_id``/``parent_id``/``trace_id`` are assigned at entry:
    ``parent_id`` is the enclosing span on this thread, or — for a
    worker registry's root spans — the parent process's handoff span.
    """

    __slots__ = ("telemetry", "name", "attrs", "seconds", "_started",
                 "span_id", "parent_id", "trace_id")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: Dict):
        self.telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self.seconds: float = 0.0
        self._started: float = 0.0
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.trace_id: Optional[str] = None

    def __enter__(self) -> "Span":
        self.telemetry._enter_span(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        ended = time.perf_counter()
        self.seconds = ended - self._started
        self.telemetry._exit_span(self, ended, error=exc_type is not None)


class Telemetry:
    """A registry of metrics plus a structured event stream.

    Thread-compatible by construction: metric updates are plain attribute
    arithmetic (atomic enough under the GIL) and the span stack is
    thread-local, so concurrent production runs cannot corrupt nesting.

    ``context`` links this registry into an existing trace (worker
    processes); without one, the registry starts a fresh trace.
    """

    def __init__(self, sink: Optional[Sink] = None,
                 context: Optional[TraceContext] = None):
        self.sink: Sink = sink if sink is not None else NULL_SINK
        self.context = context
        self.trace_id = (context.trace_id if context is not None
                         else new_trace_id())
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._local = threading.local()
        self._seq = 0
        self._span_seq = 0
        self._registry_id = next(_REGISTRY_IDS)
        self._pid = os.getpid()
        self._epoch = time.perf_counter()
        self._epoch_wall = time.time()
        # clock alignment at handoff: how far into the parent timeline
        # this registry was born (0 for a root registry)
        self._ts_base = 0.0
        if context is not None and context.wall_origin is not None:
            self._ts_base = max(self._epoch_wall - context.wall_origin,
                                0.0)

    # -- metric accessors ------------------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            metric = self._histograms[name] = Histogram(name)
            return metric

    def count(self, name: str, amount: int = 1) -> None:
        """Convenience one-shot counter increment."""
        self.counter(name).add(amount)

    # -- spans -----------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """A nestable timed region; see :class:`Span`."""
        return Span(self, name, attrs)

    def _span_stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _next_span_id(self) -> str:
        # pid alone cannot disambiguate: the serial batch path runs one
        # registry per workload inside a single process
        self._span_seq += 1
        return f"{self._pid:x}.{self._registry_id:x}.{self._span_seq:x}"

    def _enter_span(self, span: Span) -> None:
        stack = self._span_stack()
        span.span_id = self._next_span_id()
        if stack:
            span.parent_id = stack[-1].span_id
        elif self.context is not None:
            # root span of a worker registry: link across the process
            # boundary to the parent's handoff span
            span.parent_id = self.context.span_id
        span.trace_id = self.trace_id
        stack.append(span)

    def _exit_span(self, span: Span, ended: float, error: bool) -> None:
        stack = self._span_stack()
        depth = len(stack)
        parent = stack[-2].name if depth >= 2 else None
        stack.pop()
        self.histogram(f"span.{span.name}").record(span.seconds)
        if self.sink.enabled:
            event = {"type": "span", "name": span.name,
                     "dur_s": span.seconds, "depth": depth,
                     "parent": parent,
                     "span_id": span.span_id,
                     "parent_id": span.parent_id,
                     "trace_id": span.trace_id}
            if error:
                event["error"] = True
            if span.attrs:
                event["attrs"] = span.attrs
            # stamped with the close time, not the emit time, so that
            # the exported start (ts - dur) is the span's entry time
            self._emit(event, at=ended)

    # -- trace handoff ---------------------------------------------------

    def trace_context(self) -> TraceContext:
        """The handoff record for a worker spawned right now.

        The handoff span is the innermost span open on the calling
        thread (or this registry's own inherited handoff span when none
        is open); ``wall_origin`` re-expresses the *root* timeline's
        zero point so chained handoffs (a worker handing its own context
        on) keep one shared clock.
        """
        stack = self._span_stack()
        if stack:
            span_id = stack[-1].span_id
        elif self.context is not None:
            span_id = self.context.span_id
        else:
            span_id = None
        return TraceContext(trace_id=self.trace_id, span_id=span_id,
                            wall_origin=self._epoch_wall - self._ts_base)

    # -- events ----------------------------------------------------------

    def event(self, name: str, **fields) -> None:
        """Emit one structured point event (dropped when sink disabled)."""
        if not self.sink.enabled:
            return
        event = {"type": "event", "name": name}
        if fields:
            event["attrs"] = fields
        self._emit(event)

    def forward(self, events: Iterable[Dict]) -> None:
        """Re-emit pre-formed worker events into this registry's sink.

        Events keep their own ``seq``/``ts``/``pid`` — a worker registry
        built from this registry's :meth:`trace_context` already stamped
        them on the shared timeline, so rewriting them here would break
        cross-process comparability.  No-op when the sink is disabled.
        """
        if not self.sink.enabled:
            return
        for event in events:
            if event.get("type") == "snapshot":
                continue  # per-worker snapshots are merged, not streamed
            self.sink.emit(dict(event))

    def emit_snapshot(self) -> None:
        """Emit the full metric state as one ``snapshot`` event."""
        if not self.sink.enabled:
            return
        self._emit({"type": "snapshot", "name": "telemetry.snapshot",
                    "metrics": self.snapshot()})

    def _emit(self, event: Dict, at: Optional[float] = None) -> None:
        self._seq += 1
        event["seq"] = self._seq
        if at is None:
            at = time.perf_counter()
        event["ts"] = round(self._ts_base + at - self._epoch, 6)
        event["pid"] = self._pid
        self.sink.emit(event)

    # -- lifecycle / export ----------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when a real (non-null) sink is attached."""
        return self.sink.enabled

    def snapshot(self) -> Dict[str, Dict]:
        """All metric values as plain data (the ``--json`` surface)."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.to_dict()
                           for n, h in sorted(self._histograms.items())},
        }

    def absorb(self, snapshot: Optional[Dict]) -> None:
        """Fold a worker's metric snapshot into this registry.

        Counters sum, gauges keep the max (the only order-independent
        merge), histograms absorb the aggregate (exact count/sum/min/
        max; the percentile sketch inherits the worker's quantile
        points, so percentiles are approximate).  Parents use this so
        worker metrics stay visible in their own final snapshot; a
        batch's merged snapshot is a fresh registry that absorbed every
        worker's.
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            if value:
                self.count(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, agg in snapshot.get("histograms", {}).items():
            self.histogram(name).absorb(agg)

    def reset(self) -> None:
        """Drop all metrics (the sink and its stream are untouched)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def close(self) -> None:
        """Emit a final snapshot and close the sink."""
        self.emit_snapshot()
        self.sink.close()
