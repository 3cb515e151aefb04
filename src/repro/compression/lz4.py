"""Pure-Python implementation of the LZ4 block format.

LZ4 appears in the paper's codec-efficiency study (Fig 2) as the other
fast Lempel-Ziv variant.  This module implements the LZ4 *block* format
from scratch (no frame header/checksums): output produced here decodes
with the reference ``LZ4_decompress_safe`` and vice versa.

Block format: a sequence of (token, literals, match) records.

- ``token`` high nibble = literal count; ``15`` means extension bytes of
  value 255 follow until a byte < 255, all summed.
- literal bytes.
- 2-byte little-endian match offset (1..65535; 0 is invalid).
- ``token`` low nibble = match length - 4, with the same 15/255 extension
  scheme; minimum match is 4.
- The final sequence carries only literals (no offset/match).

Encoder constraints honoured for reference-decoder compatibility:
the last 5 bytes are always literals, and no match may start within the
last 12 bytes of input (``MFLIMIT``).

The compressor is greedy.  The candidate at position ``i`` is the most
recent earlier position with the same 4 bytes, if it is at most 65,535
back; every position below ``n - MFLIMIT`` is a possible candidate,
inside matches too.  That rule does not depend on the parse, which is
what lets :mod:`~repro.compression.matchtable` compute all candidates
up front.
"""

from __future__ import annotations

from typing import Optional

from repro.compression.codec import Codec, CodecError
from repro.compression.matchtable import match_candidates

__all__ = ["lz4_compress", "lz4_decompress", "LZ4Codec"]

_MIN_MATCH = 4
#: Matches may not start within this many bytes of the end of input.
_MFLIMIT = 12
#: The final literals run must cover at least this many bytes.
_LAST_LITERALS = 5
_MAX_DISTANCE = 65535


def _write_length(out: bytearray, value: int) -> None:
    """Append the 15/255 extension byte encoding of ``value`` (>= 15)."""
    value -= 15
    while value >= 255:
        out.append(255)
        value -= 255
    out.append(value)


def _emit_sequence(
    out: bytearray,
    data: bytes,
    lit_start: int,
    lit_end: int,
    offset: int,
    match_len: int,
) -> None:
    lit_len = lit_end - lit_start
    token_lit = min(lit_len, 15)
    token_match = min(match_len - _MIN_MATCH, 15)
    out.append((token_lit << 4) | token_match)
    if lit_len >= 15:
        _write_length(out, lit_len)
    out += data[lit_start:lit_end]
    out.append(offset & 0xFF)
    out.append(offset >> 8)
    if match_len - _MIN_MATCH >= 15:
        _write_length(out, match_len - _MIN_MATCH)


def _emit_last_literals(out: bytearray, data: bytes, lit_start: int) -> None:
    lit_len = len(data) - lit_start
    token_lit = min(lit_len, 15)
    out.append(token_lit << 4)
    if lit_len >= 15:
        _write_length(out, lit_len)
    out += data[lit_start:]


def lz4_compress(data: bytes) -> bytes:
    """Compress ``data`` into an LZ4 block."""
    data = bytes(data)  # the input itself unless it is another buffer type
    n = len(data)
    out = bytearray()
    # No match starts in the last MFLIMIT bytes: inputs that short (the
    # empty one too, which still needs its token) are one literal run.
    cand_of, next_match = match_candidates(
        data, _MIN_MATCH, n - _MFLIMIT, _MAX_DISTANCE
    )
    match_end = n - _LAST_LITERALS  # a match must leave LASTLITERALS bytes
    lit_start = 0
    i = next_match[0]
    while i < n:
        # Extend the match (the first 4 bytes are equal by key identity).
        cand = cand_of[i]
        max_len = match_end - i
        mlen = _MIN_MATCH
        while mlen < max_len and data[cand + mlen] == data[i + mlen]:
            mlen += 1
        _emit_sequence(out, data, lit_start, i, i - cand, mlen)
        lit_start = i + mlen
        i = next_match[lit_start]
    _emit_last_literals(out, data, lit_start)
    return bytes(out)


def _read_length(data: bytes, i: int, base: int) -> tuple[int, int]:
    """Resolve a 15-extension length starting at ``data[i]``."""
    length = base
    while True:
        b = data[i]
        i += 1
        length += b
        if b != 255:
            return length, i


def lz4_decompress(data: bytes, original_size: Optional[int] = None) -> bytes:
    """Decode an LZ4 block produced by :func:`lz4_compress`."""
    out = bytearray()
    i = 0
    n = len(data)
    if n == 0:
        raise CodecError("empty LZ4 block (a valid empty block is b'\\x00')")
    try:
        while i < n:
            token = data[i]
            i += 1
            lit_len = token >> 4
            if lit_len == 15:
                lit_len, i = _read_length(data, i, 15)
            if i + lit_len > n:
                raise CodecError("LZ4 literal run overruns input")
            out += data[i : i + lit_len]
            i += lit_len
            if i >= n:
                break  # last sequence: literals only
            offset = data[i] | (data[i + 1] << 8)
            i += 2
            if offset == 0:
                raise CodecError("LZ4 match offset 0 is invalid")
            match_len = token & 0x0F
            if match_len == 15:
                match_len, i = _read_length(data, i, 15)
            match_len += _MIN_MATCH
            start = len(out) - offset
            if start < 0:
                raise CodecError("LZ4 back-reference before start of output")
            if offset >= match_len:
                out += out[start : start + match_len]
            else:
                # Overlapping copy (RLE-style): the last offset bytes repeat.
                out += (out[start:] * (match_len // offset + 1))[:match_len]
    except IndexError:
        raise CodecError("truncated LZ4 block") from None
    if original_size is not None and len(out) != original_size:
        raise CodecError(
            f"LZ4 decoded {len(out)} bytes, expected {original_size}"
        )
    return bytes(out)


class LZ4Codec(Codec):
    """The LZ4 block codec as a registry :class:`~repro.compression.codec.Codec`."""

    name = "lz4"
    tag = 2

    def compress(self, data: bytes) -> bytes:
        return lz4_compress(data)

    def decompress(self, data: bytes, original_size: Optional[int] = None) -> bytes:
        return lz4_decompress(data, original_size)
