"""§3.4 order recovery: replaying traces with ambiguous timestamps."""

import pytest

from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.symex.ordering import (ambiguous_groups, candidate_orders,
                                  replay_with_order_recovery)
from repro.trace.decoder import DecodedChunk, DecodedTrace, decode
from repro.trace.encoder import PTEncoder
from repro.trace.merge import (merge_trace_by_timestamp, split_per_cpu)
from repro.trace.ringbuffer import RingBuffer
from repro.workloads import get_workload


def _chunk(tid, ts, n=1):
    return DecodedChunk(tid=tid, timestamp=ts, n_instrs=n)


class TestAmbiguousGroups:
    def test_distinct_timestamps_unambiguous(self):
        chunks = [_chunk(0, 1), _chunk(1, 2), _chunk(0, 3)]
        assert ambiguous_groups(chunks) == []

    def test_equal_ts_multi_thread(self):
        chunks = [_chunk(0, 1), _chunk(1, 1), _chunk(0, 2)]
        assert [list(g) for g in ambiguous_groups(chunks)] == [[0, 1]]

    def test_equal_ts_same_thread_not_ambiguous(self):
        chunks = [_chunk(0, 1), _chunk(0, 1)]
        assert ambiguous_groups(chunks) == []

    def test_multiple_groups(self):
        chunks = [_chunk(0, 1), _chunk(1, 1),
                  _chunk(0, 5),
                  _chunk(1, 9), _chunk(2, 9), _chunk(0, 9)]
        groups = [list(g) for g in ambiguous_groups(chunks)]
        assert groups == [[0, 1], [3, 4, 5]]


class TestCandidateOrders:
    def test_identity_first(self):
        chunks = [_chunk(0, 1), _chunk(1, 1)]
        first = next(candidate_orders(chunks))
        assert [c.tid for c in first] == [0, 1]

    def test_all_permutations_of_group(self):
        chunks = [_chunk(0, 1), _chunk(1, 1)]
        orders = [[c.tid for c in o] for o in candidate_orders(chunks)]
        assert orders == [[0, 1], [1, 0]]

    def test_unambiguous_single_order(self):
        chunks = [_chunk(0, 1), _chunk(1, 2)]
        assert len(list(candidate_orders(chunks))) == 1

    def test_bounded_total(self):
        chunks = [_chunk(tid, 1) for tid in range(6)]
        orders = list(candidate_orders(chunks, max_total=10))
        assert len(orders) == 10


class TestMerge:
    def _mt_trace(self, workload_name="python-2018-1000030"):
        workload = get_workload(workload_name)
        module = workload.module()
        encoder = PTEncoder(RingBuffer())
        run = Interpreter(module, workload.failing_env(1),
                          tracer=encoder).run()
        return module, run, decode(encoder.buffer)

    def test_split_preserves_per_thread_order(self):
        _, _, trace = self._mt_trace()
        streams = split_per_cpu(trace)
        assert len(streams) >= 2
        for tid, chunks in streams.items():
            original = [c for c in trace.chunks if c.tid == tid]
            assert chunks == original

    def test_merge_preserves_chunk_multiset(self):
        _, _, trace = self._mt_trace()
        merged = merge_trace_by_timestamp(trace)
        assert sorted(id(c) for c in merged.chunks) == \
            sorted(id(c) for c in trace.chunks)

    def test_merge_respects_timestamps(self):
        _, _, trace = self._mt_trace()
        merged = merge_trace_by_timestamp(trace)
        timestamps = [c.timestamp for c in merged.chunks]
        assert timestamps == sorted(timestamps)


class TestOrderRecovery:
    @pytest.mark.parametrize("name", ["python-2018-1000030",
                                      "memcached-2019-11596",
                                      "pbzip2-uaf"])
    def test_recovers_merged_mt_traces(self, name):
        """A timestamp-merged (order-lossy) trace still replays."""
        workload = get_workload(name)
        module = workload.module()
        encoder = PTEncoder(RingBuffer())
        run = Interpreter(module, workload.failing_env(1),
                          tracer=encoder).run()
        assert run.failure is not None
        merged = merge_trace_by_timestamp(decode(encoder.buffer))
        result = replay_with_order_recovery(
            module, merged, run.failure,
            work_limit=10_000_000)
        assert result.status in ("completed", "stalled")

    def test_exact_trace_needs_no_search(self, spawn_module):
        encoder = PTEncoder(RingBuffer())
        run = Interpreter(spawn_module, Environment({}, quantum=3),
                          tracer=encoder).run()
        trace = decode(encoder.buffer)
        result = replay_with_order_recovery(spawn_module, trace, None)
        assert result.completed

    def test_reports_failure_after_exhausting_orders(self, spawn_module):
        encoder = PTEncoder(RingBuffer())
        Interpreter(spawn_module, Environment({}, quantum=3),
                    tracer=encoder).run()
        trace = decode(encoder.buffer)
        # corrupt a chunk's instruction count: no order can replay this
        trace.chunks[-1].n_instrs += 10_000
        result = replay_with_order_recovery(spawn_module, trace, None)
        assert result.status == "diverged"
        assert "chunk orders" in result.divergence_reason
