"""Packet-level format of the simulated Intel PT stream.

The format mirrors the roles (not the exact bit layout) of the real Intel
PT packets ER consumes:

* ``PSB``  — stream synchronization point (decoders resync here).
* ``CHD``  — chunk header: thread id + coarse timestamp.  Plays the role of
  PIP/MTC context packets; one per scheduler chunk (§3.4).
* ``CHE``  — chunk end: retired-instruction count of the chunk (CYC-like).
* ``TNT``  — taken/not-taken bits for up to six conditional branches,
  packed into one payload byte exactly like a short TNT packet.
* ``PTW``  — a key data value recorded by a ``ptwrite`` instruction:
  varint tag + 8-byte little-endian value.
* ``OVF``  — emitted logically when the ring buffer wrapped.

Integers are LEB128 varints; every packet starts with a one-byte kind tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from ..errors import TraceError

PSB = 0x01
CHD = 0x02
CHE = 0x03
TNT = 0x04
PTW = 0x05
OVF = 0x06

#: PSB emitted after this many payload bytes (real PT: every 4 KiB).
PSB_PERIOD = 4096

#: Max branch bits per TNT packet (short TNT).
TNT_CAPACITY = 6


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if 0 <= value < 0x80:
        return bytes((value,))
    if value < 0:
        raise TraceError(f"varint cannot encode negative {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode LEB128 at ``pos``; returns (value, next_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise TraceError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise TraceError("varint too long")


def encode_tnt(bits: List[bool]) -> bytes:
    """Pack 1..6 branch bits into a short-TNT payload byte.

    Layout: a leading 1 marker bit above the bits, bits stored LSB-first
    (first branch in bit 0).
    """
    if not 1 <= len(bits) <= TNT_CAPACITY:
        raise TraceError(f"TNT holds 1..{TNT_CAPACITY} bits, got {len(bits)}")
    payload = 1 << len(bits)
    for i, bit in enumerate(bits):
        if bit:
            payload |= 1 << i
    return bytes((TNT, payload))


def decode_tnt(payload: int) -> List[bool]:
    """Unpack a short-TNT payload byte."""
    if payload <= 1:
        raise TraceError(f"bad TNT payload {payload:#x}")
    count = payload.bit_length() - 1
    return [bool(payload & (1 << i)) for i in range(count)]


@dataclass(frozen=True)
class TntEvent:
    taken: bool


@dataclass(frozen=True)
class PtwEvent:
    tag: int
    value: int


@dataclass(frozen=True)
class GapEvent:
    """A branch whose TNT bit was lost (e.g. the paper's 8.5 % of x86
    control-flow events that cannot be mapped back to IR, §4).  The
    gap-tolerant replay (:mod:`repro.symex.gaps`) searches over the
    missing outcome."""


ChunkEvent = Union[TntEvent, PtwEvent, GapEvent]
