"""Pure-Python implementation of the LZF compressed format.

LZF (Marc Lehmann's libLZF) is the fast, low-ratio codec the paper uses
during bursty periods.  This module implements the *wire format* of
libLZF from scratch — output produced here decompresses with liblzf and
vice versa — so compression ratios measured in the evaluation are real.

Format summary (one token stream, no header):

- control byte ``c < 0x20``: a literal run of ``c + 1`` bytes follows
  (1..32 literals per run).
- control byte ``c >= 0x20``: a back-reference.  ``len3 = c >> 5`` is the
  3-bit length code; if ``len3 == 7`` an extension byte follows and the
  match length is ``7 + ext + 2``, otherwise ``len3 + 2`` (3..264 bytes).
  The distance is ``((c & 0x1f) << 8 | low_byte) + 1`` (1..8192).

The compressor is greedy.  The candidate at position ``i`` is the most
recent earlier position with the same 3 bytes, if it is at most 8192
back; every position below ``n - 2`` is a possible candidate, inside
matches too (``lzf_c.c`` indexes fewer, so its output differs).  That
rule does not depend on the parse, which is what lets
:mod:`~repro.compression.matchtable` compute all candidates up front.
"""

from __future__ import annotations

from typing import Optional

from repro.compression.codec import Codec, CodecError
from repro.compression.matchtable import match_candidates

__all__ = ["lzf_compress", "lzf_decompress", "LZFCodec"]

#: Maximum literals encodable in one control byte.
_MAX_LIT = 32
#: Maximum back-reference distance (13-bit offset field, +1 bias).
_MAX_OFF = 1 << 13
#: Maximum match length: 2 + 7 + 255.
_MAX_REF = 264
#: Minimum match length worth encoding (a reference costs 2-3 bytes).
_MIN_MATCH = 3


def _emit_literals(out: bytearray, data: bytes, start: int, end: int) -> None:
    """Append ``data[start:end]`` as literal runs of at most 32 bytes."""
    for pos in range(start, end, _MAX_LIT):
        run = data[pos : min(pos + _MAX_LIT, end)]
        out.append(len(run) - 1)
        out += run


def lzf_compress(data: bytes) -> bytes:
    """Compress ``data`` into the LZF token stream.

    The output is never useful when larger than the input, but — like
    libLZF in its "always succeed" mode — it is still produced; callers
    (EDC's 75 % rule) decide whether to keep it.
    """
    data = bytes(data)  # the input itself unless it is another buffer type
    n = len(data)
    out = bytearray()
    append = out.append
    # A key needs 3 bytes, so positions 0 .. n-3 have one.
    cand_of, next_match = match_candidates(data, _MIN_MATCH, n - 2, _MAX_OFF)
    full_ref = n - _MAX_REF  # up to here a match may run to _MAX_REF
    lit_start = 0
    i = next_match[0]
    while i < n:
        # Extend the match (the first 3 bytes are equal by key identity).
        cand = cand_of[i]
        max_len = _MAX_REF if i <= full_ref else n - i
        mlen = _MIN_MATCH
        while mlen < max_len and data[cand + mlen] == data[i + mlen]:
            mlen += 1
        if i - lit_start > _MAX_LIT:
            _emit_literals(out, data, lit_start, i)
        elif lit_start < i:  # one run, inline: a call here costs the encoder 1.3x
            append(i - lit_start - 1)
            out += data[lit_start:i]
        off = i - cand - 1
        if mlen < 9:  # length code mlen - 2; code 7 adds an extension byte
            append(((mlen - 2) << 5) | (off >> 8))
        else:
            append((7 << 5) | (off >> 8))
            append(mlen - 9)
        append(off & 0xFF)
        lit_start = i + mlen
        i = next_match[lit_start]
    _emit_literals(out, data, lit_start, n)
    return bytes(out)


def lzf_decompress(data: bytes, original_size: Optional[int] = None) -> bytes:
    """Decode an LZF token stream produced by :func:`lzf_compress`.

    ``original_size``, when given, is validated against the decoded
    length (EDC always knows it from the mapping entry).
    """
    out = bytearray()
    i = 0
    n = len(data)
    try:
        while i < n:
            ctrl = data[i]
            i += 1
            if ctrl < 0x20:
                run = ctrl + 1
                if i + run > n:
                    raise CodecError("LZF literal run overruns input")
                out += data[i : i + run]
                i += run
                continue
            length = ctrl >> 5
            if length == 7:
                length += data[i]
                i += 1
            length += 2
            dist = ((ctrl & 0x1F) << 8) | data[i]
            i += 1
            dist += 1
            start = len(out) - dist
            if start < 0:
                raise CodecError("LZF back-reference before start of output")
            if dist >= length:
                out += out[start : start + length]
            else:
                # Overlapping copy (RLE-style): the last dist bytes repeat.
                out += (out[start:] * (length // dist + 1))[:length]
    except IndexError:
        raise CodecError("truncated LZF stream") from None
    if original_size is not None and len(out) != original_size:
        raise CodecError(
            f"LZF decoded {len(out)} bytes, expected {original_size}"
        )
    return bytes(out)


class LZFCodec(Codec):
    """The LZF codec as a registry :class:`~repro.compression.codec.Codec`."""

    name = "lzf"
    tag = 1

    def compress(self, data: bytes) -> bytes:
        return lzf_compress(data)

    def decompress(self, data: bytes, original_size: Optional[int] = None) -> bytes:
        return lzf_decompress(data, original_size)
