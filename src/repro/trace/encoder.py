"""PT encoder: the tracer sink the interpreter streams events into.

Implements the tracer protocol.  The interpreter appends each
conditional branch's outcome to :attr:`PTEncoder.tnt_bits` and calls
``begin_chunk`` / ``on_ptwrite`` / ``end_chunk``; ``on_branch`` appends
one bit for callers that step by hand.  Bits are packed six per TNT
packet only when a PTW packet follows or the chunk ends, so the decoder
still sees exact program order.  A chunk's packets are built in one
``bytearray`` and reach the :class:`~repro.trace.ringbuffer.RingBuffer`
and the ``trace.*`` counters once, at ``end_chunk``, so encoding costs
a call per chunk rather than per branch.  The bytes are the ones the
per-event encoder wrote (``tests/trace/reference_encoder.py``).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..errors import TraceError
from ..ir.types import MASK64
from .packets import (CHD, CHE, PSB, PSB_PERIOD, PTW, TNT_CAPACITY,
                      encode_tnt, encode_varint)
from .ringbuffer import RingBuffer

#: every run of 1..6 branch outcomes -> its TNT packet
_TNT_PACKETS: Dict[Tuple[bool, ...], bytes] = {
    bits: encode_tnt(list(bits))
    for width in range(1, TNT_CAPACITY + 1)
    for bits in product((False, True), repeat=width)}


class PTEncoder:
    """Serializes interpreter events into a simulated PT byte stream."""

    def __init__(self, buffer: Optional[RingBuffer] = None):
        self.buffer = buffer if buffer is not None else RingBuffer()
        #: branch outcomes of the open chunk not yet packed; the
        #: interpreter appends to this list, the encoder empties it in
        #: place and never rebinds it
        self.tnt_bits: List[bool] = []
        #: the open chunk's packets, ``None`` between chunks
        self._chunk: Optional[bytearray] = None
        self._packets = 0
        self._ptws = 0
        self._bits = 0
        self._since_psb = 0
        tel = telemetry.get()
        self._c_packets = tel.counter("trace.packets_emitted")
        self._c_tnt_bits = tel.counter("trace.tnt_bits")
        self._c_ptw = tel.counter("trace.ptw_packets")
        self._c_bytes = tel.counter("trace.bytes_emitted")
        self._c_chunks = tel.counter("trace.chunks_emitted")
        self._emit_psb()

    # -- tracer protocol -------------------------------------------------

    def begin_chunk(self, tid: int, timestamp: int) -> None:
        if self._chunk is not None:
            raise TraceError("begin_chunk while a chunk is open")
        chunk = self._chunk = bytearray((CHD,))
        chunk += encode_varint(tid)
        chunk += encode_varint(timestamp)
        self._packets, self._ptws, self._bits = 1, 0, 0

    def on_branch(self, taken: bool) -> None:
        self._open_chunk()
        self.tnt_bits.append(bool(taken))

    def on_ptwrite(self, tag: int, value: int) -> None:
        chunk = self._open_chunk()
        self._pack_tnt(chunk)
        chunk.append(PTW)
        chunk += encode_varint(tag)
        chunk += (value & MASK64).to_bytes(8, "little")
        self._packets += 1
        self._ptws += 1

    def end_chunk(self, n_instrs: int) -> None:
        chunk = self._open_chunk()
        self._pack_tnt(chunk)
        chunk.append(CHE)
        chunk += encode_varint(n_instrs)
        self._chunk = None
        self.buffer.write(chunk)
        self._c_packets.add(self._packets + 1)
        self._c_tnt_bits.add(self._bits)
        self._c_ptw.add(self._ptws)
        self._c_bytes.add(len(chunk))
        self._c_chunks.add()
        self._since_psb += len(chunk)
        if self._since_psb >= PSB_PERIOD:
            self._emit_psb()

    # -- internals ---------------------------------------------------------

    def _open_chunk(self) -> bytearray:
        chunk = self._chunk
        if chunk is None:
            raise TraceError("trace event outside a chunk")
        return chunk

    def _pack_tnt(self, chunk: bytearray) -> None:
        """Append the pending bits to ``chunk``, six per TNT packet."""
        bits = self.tnt_bits
        if not bits:
            return
        count = len(bits)
        for start in range(0, count, TNT_CAPACITY):
            chunk += _TNT_PACKETS[tuple(bits[start:start + TNT_CAPACITY])]
        self._packets += -(-count // TNT_CAPACITY)
        self._bits += count
        bits.clear()

    def _emit_psb(self) -> None:
        self.buffer.write(bytes((PSB,)))
        self._c_packets.add()
        self._c_bytes.add(1)
        self._since_psb = 0

    # -- results -----------------------------------------------------------

    @property
    def bytes_emitted(self) -> int:
        """Total trace bytes produced (overhead-model input)."""
        return self.buffer.total_written

    def raw(self) -> bytes:
        return self.buffer.contents()
