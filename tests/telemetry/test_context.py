"""Trace identity: span ids, cross-registry handoff, clock alignment."""

import pickle
import time

from repro.telemetry import MemorySink, Telemetry, TraceContext, new_trace_id
from repro.telemetry.context import TraceContext as ContextAlias


class TestTraceId:
    def test_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for tid in ids:
            int(tid, 16)
            assert len(tid) == 16

    def test_fresh_registry_starts_fresh_trace(self):
        a, b = Telemetry(), Telemetry()
        assert a.trace_id != b.trace_id


class TestSpanIdentity:
    def test_spans_get_unique_ids_and_parent_links(self):
        sink = MemorySink()
        tel = Telemetry(sink)
        with tel.span("outer"):
            with tel.span("inner"):
                pass
            with tel.span("sibling"):
                pass
        by_name = {e["name"]: e for e in sink.events}
        outer, inner, sib = (by_name["outer"], by_name["inner"],
                             by_name["sibling"])
        assert len({outer["span_id"], inner["span_id"],
                    sib["span_id"]}) == 3
        assert inner["parent_id"] == outer["span_id"]
        assert sib["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert outer["trace_id"] == inner["trace_id"] == tel.trace_id

    def test_events_carry_pid(self):
        import os

        sink = MemorySink()
        tel = Telemetry(sink)
        tel.event("e")
        assert sink.events[0]["pid"] == os.getpid()


class TestHandoff:
    def test_context_is_picklable(self):
        ctx = TraceContext(trace_id="abc", span_id="1.2",
                           wall_origin=123.0)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx
        assert ContextAlias is TraceContext

    def test_round_trips_via_dict(self):
        ctx = TraceContext(trace_id="abc", span_id=None, wall_origin=1.5)
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_worker_joins_parent_trace(self):
        parent_sink = MemorySink()
        parent = Telemetry(parent_sink)
        with parent.span("handoff"):
            ctx = parent.trace_context()
        worker_sink = MemorySink()
        worker = Telemetry(worker_sink, context=ctx)
        with worker.span("child"):
            pass
        assert worker.trace_id == parent.trace_id
        child = worker_sink.events[0]
        handoff = parent_sink.events[0]
        # the worker's ROOT span parents on the handoff span, across
        # the (simulated) process boundary
        assert child["parent_id"] == handoff["span_id"]
        assert ctx.span_id == handoff["span_id"]

    def test_context_without_open_span_inherits_upward(self):
        parent = Telemetry(MemorySink())
        with parent.span("stage"):
            ctx = parent.trace_context()
        worker = Telemetry(context=ctx)
        # no span open on the worker: its own handoff context falls
        # back to the inherited span id, so a grandchild still links
        grandchild_ctx = worker.trace_context()
        assert grandchild_ctx.trace_id == parent.trace_id
        assert grandchild_ctx.span_id == ctx.span_id


class TestClockAlignment:
    def test_worker_ts_lands_after_parent_handoff(self):
        parent_sink = MemorySink()
        parent = Telemetry(parent_sink)
        parent.event("before")
        time.sleep(0.02)
        ctx = parent.trace_context()
        worker_sink = MemorySink()
        worker = Telemetry(worker_sink, context=ctx)
        worker.event("after")
        before_ts = parent_sink.events[0]["ts"]
        after_ts = worker_sink.events[0]["ts"]
        # the worker clock is rebased onto the parent timeline: its
        # first event cannot precede a parent event emitted earlier
        assert after_ts > before_ts
        assert after_ts >= 0.02

    def test_chained_handoffs_share_one_origin(self):
        root = Telemetry()
        mid = Telemetry(context=root.trace_context())
        leaf_ctx = mid.trace_context()
        # root -> worker -> nested worker: wall_origin re-expresses the
        # ROOT origin each hop, so all levels share one zero point
        assert abs(leaf_ctx.wall_origin
                   - root.trace_context().wall_origin) < 0.5

    def test_root_registry_has_zero_base(self):
        sink = MemorySink()
        tel = Telemetry(sink)
        tel.event("now")
        assert sink.events[0]["ts"] < 5.0
