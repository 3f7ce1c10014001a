"""Ring buffer semantics and encoder/decoder round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import TraceError, TraceTruncatedError
from repro.interp.interpreter import Interpreter
from repro.telemetry import Telemetry
from repro.trace.decoder import decode
from repro.trace.encoder import PTEncoder
from repro.trace.packets import PSB_PERIOD, PtwEvent, TntEvent
from repro.trace.ringbuffer import RingBuffer
from repro.workloads import get_workload


class TestRingBuffer:
    def test_stores_bytes(self):
        rb = RingBuffer(16)
        rb.write(b"abc")
        assert rb.contents() == b"abc" and not rb.wrapped

    def test_overwrites_oldest(self):
        rb = RingBuffer(4)
        rb.write(b"abcdef")
        assert rb.contents() == b"cdef" and rb.wrapped

    def test_write_larger_than_capacity(self):
        rb = RingBuffer(4)
        rb.write(b"0123456789")
        assert rb.contents() == b"6789"

    def test_total_written_tracks_everything(self):
        rb = RingBuffer(4)
        rb.write(b"abcdef")
        assert rb.total_written == 6

    def test_wrap_counter_counts_overwriting_writes(self):
        rb = RingBuffer(4)
        rb.write(b"abc")
        assert rb.wraps == 0 and rb.bytes_dropped == 0
        rb.write(b"de")              # drops 'a'
        assert rb.wraps == 1 and rb.bytes_dropped == 1
        rb.write(b"fg")              # drops 'bc'... buffer now 'defg'->+2
        assert rb.wraps == 2 and rb.bytes_dropped == 3

    def test_wrap_counter_oversized_single_write(self):
        rb = RingBuffer(4)
        rb.write(b"0123456789")      # 6 bytes can never fit
        assert rb.wraps == 1 and rb.bytes_dropped == 6
        assert rb.wrapped

    def test_exact_capacity_write_is_not_a_wrap(self):
        rb = RingBuffer(4)
        rb.write(b"abcd")
        assert rb.wraps == 0 and rb.bytes_dropped == 0
        assert not rb.wrapped

    def test_dropped_plus_surviving_equals_written(self):
        rb = RingBuffer(8)
        for chunk in (b"aaaa", b"bbbb", b"cc", b"ddddd"):
            rb.write(chunk)
        assert rb.bytes_dropped + len(rb) == rb.total_written

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            RingBuffer(0)


def _encode(chunks):
    """chunks: list of (tid, ts, events, n_instrs)."""
    enc = PTEncoder(RingBuffer())
    for tid, ts, events, n in chunks:
        enc.begin_chunk(tid, ts)
        for event in events:
            if isinstance(event, bool):
                enc.on_branch(event)
            else:
                enc.on_ptwrite(*event)
        enc.end_chunk(n)
    return enc


class TestEncoderDecoder:
    def test_empty_chunk(self):
        enc = _encode([(0, 5, [], 3)])
        trace = decode(enc.buffer)
        assert len(trace.chunks) == 1
        chunk = trace.chunks[0]
        assert (chunk.tid, chunk.timestamp, chunk.n_instrs) == (0, 5, 3)

    def test_branch_bits_in_order(self):
        bits = [True, False, False, True, True, False, True, False]
        enc = _encode([(0, 0, bits, 20)])
        trace = decode(enc.buffer)
        assert trace.chunks[0].branch_bits() == bits

    def test_ptw_interleaving_preserved(self):
        events = [True, (3, 0xDEAD), False, (4, 0xBEEF), True]
        enc = _encode([(1, 2, events, 9)])
        decoded = decode(enc.buffer).chunks[0].events
        kinds = [(e.taken if isinstance(e, TntEvent) else (e.tag, e.value))
                 for e in decoded]
        assert kinds == [True, (3, 0xDEAD), False, (4, 0xBEEF), True]

    def test_multi_chunk_order_and_tids(self):
        enc = _encode([(0, 0, [True], 4), (1, 1, [False], 7),
                       (0, 2, [], 2)])
        trace = decode(enc.buffer)
        assert [c.tid for c in trace.chunks] == [0, 1, 0]
        assert trace.instr_count == 13
        assert trace.tids() == [0, 1]

    def test_event_outside_chunk_rejected(self):
        enc = PTEncoder(RingBuffer())
        with pytest.raises(TraceError):
            enc.on_branch(True)

    def test_nested_chunk_rejected(self):
        enc = PTEncoder(RingBuffer())
        enc.begin_chunk(0, 0)
        with pytest.raises(TraceError):
            enc.begin_chunk(0, 1)

    def test_wrapped_buffer_raises_by_default(self):
        enc = PTEncoder(RingBuffer(32))
        for i in range(50):
            enc.begin_chunk(0, i)
            for _ in range(6):
                enc.on_branch(True)
            enc.end_chunk(12)
        with pytest.raises(TraceTruncatedError):
            decode(enc.buffer)

    def test_wrapped_buffer_partial_decode(self):
        enc = PTEncoder(RingBuffer(64))
        for i in range(40):
            enc.begin_chunk(0, i)
            enc.on_branch(i % 2 == 0)
            enc.end_chunk(1)
        trace = decode(enc.buffer, allow_truncated=True)
        assert trace.truncated
        assert 0 < len(trace.chunks) < 40

    def test_ptwrites_accessor(self):
        enc = _encode([(0, 0, [(1, 10), (2, 20)], 2)])
        ptws = decode(enc.buffer).ptwrites()
        assert [(p.tag, p.value) for p in ptws] == [(1, 10), (2, 20)]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(0, 3),                      # tid
            st.lists(st.one_of(
                st.booleans(),
                st.tuples(st.integers(0, 100),
                          st.integers(0, (1 << 64) - 1))),
                max_size=20),
            st.integers(0, 1000)),                   # n_instrs
        max_size=8))
    def test_roundtrip_property(self, chunks):
        enc = _encode([(tid, i, events, n)
                       for i, (tid, events, n) in enumerate(chunks)])
        trace = decode(enc.buffer)
        assert len(trace.chunks) == len(chunks)
        for chunk, (tid, events, n) in zip(trace.chunks, chunks):
            assert chunk.tid == tid and chunk.n_instrs == n
            expected = [e if isinstance(e, bool) else tuple(e)
                        for e in events]
            actual = [e.taken if isinstance(e, TntEvent)
                      else (e.tag, e.value) for e in chunk.events]
            assert actual == expected


class TestEncoderCounters:
    """``trace.bytes_emitted`` is the byte count the Fig. 6 model
    charges (``PTEncoder.bytes_emitted``), so it counts PSB packets like
    every other packet."""

    def _counters(self, run):
        tel = Telemetry()
        with telemetry.scoped(tel):
            enc = run()
        return enc, tel.snapshot()["counters"]

    def test_psb_packets_counted(self):
        # PSB, then CHD (tid, timestamp) and CHE (count): 6 bytes
        enc, counters = self._counters(lambda: _encode([(0, 5, [], 3)]))
        assert enc.bytes_emitted == 6
        assert counters["trace.bytes_emitted"] == 6
        assert counters["trace.packets_emitted"] == 3

    def test_periodic_psb_counted(self):
        chunks = [(0, i, [True] * 13, 40) for i in range(1000)]
        enc, counters = self._counters(lambda: _encode(chunks))
        assert enc.bytes_emitted > 2 * PSB_PERIOD
        assert counters["trace.bytes_emitted"] == enc.bytes_emitted

    def test_workload_byte_counter_matches_encoder(self):
        workload = get_workload("libpng-2004-0597")

        def run():
            enc = PTEncoder(RingBuffer())
            Interpreter(workload.module(), workload.failing_env(1),
                        tracer=enc).run()
            return enc
        enc, counters = self._counters(run)
        assert enc.bytes_emitted == 458
        assert counters["trace.bytes_emitted"] == 458
