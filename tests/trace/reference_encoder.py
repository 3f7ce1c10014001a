"""The per-event PT encoder, kept as a test oracle.

:class:`ReferencePTEncoder` is the encoder that
:class:`~repro.trace.encoder.PTEncoder` replaced, verbatim but for its
name: it takes one ``on_branch`` call per conditional branch, flushes a
TNT packet every six bits and writes every packet to the ring buffer as
it is built.  ``tests/trace/test_encoder_oracle.py`` runs it behind
:class:`~tests.interp.reference_interpreter.ReferenceInterpreter` and
requires the same trace bytes, ring-buffer state and counters as the
per-chunk encoder behind the compiled interpreter.  Like the parent, it
leaves PSB packets out of ``trace.bytes_emitted`` and
``trace.packets_emitted``; the oracle compares the other counters.
"""

from __future__ import annotations

from typing import List, Optional

from repro import telemetry
from repro.errors import TraceError
from repro.ir.types import MASK64
from repro.trace.packets import (CHD, CHE, PSB, PSB_PERIOD, TNT_CAPACITY,
                                 encode_tnt, encode_varint)
from repro.trace.ringbuffer import RingBuffer


class ReferencePTEncoder:
    """Serializes interpreter events into a simulated PT byte stream."""

    def __init__(self, buffer: Optional[RingBuffer] = None):
        self.buffer = buffer if buffer is not None else RingBuffer()
        self._tnt_bits: List[bool] = []
        self._in_chunk = False
        self._since_psb = 0
        # counters cached once: the tracer protocol fires per branch /
        # per packet, so updates must stay attribute arithmetic
        tel = telemetry.get()
        self._c_packets = tel.counter("trace.packets_emitted")
        self._c_tnt_bits = tel.counter("trace.tnt_bits")
        self._c_ptw = tel.counter("trace.ptw_packets")
        self._c_bytes = tel.counter("trace.bytes_emitted")
        self._c_chunks = tel.counter("trace.chunks_emitted")
        self._emit_psb()

    # -- tracer protocol -------------------------------------------------

    def begin_chunk(self, tid: int, timestamp: int) -> None:
        if self._in_chunk:
            raise TraceError("begin_chunk while a chunk is open")
        self._in_chunk = True
        self._emit(bytes((CHD,)) + encode_varint(tid)
                   + encode_varint(timestamp))

    def on_branch(self, taken: bool) -> None:
        self._require_chunk()
        self._tnt_bits.append(taken)
        if len(self._tnt_bits) == TNT_CAPACITY:
            self._flush_tnt()

    def on_ptwrite(self, tag: int, value: int) -> None:
        self._require_chunk()
        self._flush_tnt()
        payload = (value & MASK64).to_bytes(8, "little")
        self._c_ptw.add()
        self._emit(bytes((0x05,)) + encode_varint(tag) + payload)

    def end_chunk(self, n_instrs: int) -> None:
        self._require_chunk()
        self._flush_tnt()
        self._emit(bytes((CHE,)) + encode_varint(n_instrs))
        self._in_chunk = False
        self._c_chunks.add()
        if self._since_psb >= PSB_PERIOD:
            self._emit_psb()

    # -- internals ---------------------------------------------------------

    def _require_chunk(self) -> None:
        if not self._in_chunk:
            raise TraceError("trace event outside a chunk")

    def _flush_tnt(self) -> None:
        if self._tnt_bits:
            self._c_tnt_bits.add(len(self._tnt_bits))
            self._emit(encode_tnt(self._tnt_bits))
            self._tnt_bits = []

    def _emit(self, data: bytes) -> None:
        self.buffer.write(data)
        self._c_packets.add()
        self._c_bytes.add(len(data))
        self._since_psb += len(data)

    def _emit_psb(self) -> None:
        self.buffer.write(bytes((PSB,)))
        self._since_psb = 0

    # -- results -----------------------------------------------------------

    @property
    def bytes_emitted(self) -> int:
        """Total trace bytes produced (overhead-model input)."""
        return self.buffer.total_written

    def raw(self) -> bytes:
        return self.buffer.contents()
