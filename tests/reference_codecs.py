"""The per-byte LZF and LZ4 encoder loops, kept as the test oracle.

These are the encoders as they stood before the candidate table
(``repro.compression.matchtable``) replaced their ``dict`` loops, moved
here verbatim.  They define the byte stream: ``tests/test_codec_pins.py``
holds digests computed with them and ``tests/test_codec_differential.py``
compares the shipped encoders against them input by input.  Do not
optimise this file.
"""

from __future__ import annotations

__all__ = ["lzf_compress_reference", "lz4_compress_reference"]

# -- LZF ---------------------------------------------------------------
_LZF_MAX_LIT = 32
_LZF_MAX_OFF = 1 << 13
_LZF_MAX_REF = 264
_LZF_MIN_MATCH = 3


def _lzf_emit_literals(out: bytearray, data: bytes, start: int, end: int) -> None:
    """Append ``data[start:end]`` as literal runs of at most 32 bytes."""
    pos = start
    while pos < end:
        run = min(_LZF_MAX_LIT, end - pos)
        out.append(run - 1)
        out += data[pos : pos + run]
        pos += run


def lzf_compress_reference(data: bytes) -> bytes:
    n = len(data)
    if n == 0:
        return b""
    out = bytearray()
    table: dict[bytes, int] = {}
    lit_start = 0
    i = 0
    limit = n - 2  # need 3 bytes to form a match key
    while i < limit:
        key = data[i : i + 3]
        cand = table.get(key)
        table[key] = i
        if cand is None or i - cand > _LZF_MAX_OFF:
            i += 1
            continue
        # Extend the match (the first 3 bytes are equal by key identity).
        max_len = min(n - i, _LZF_MAX_REF)
        mlen = _LZF_MIN_MATCH
        while mlen < max_len and data[cand + mlen] == data[i + mlen]:
            mlen += 1
        _lzf_emit_literals(out, data, lit_start, i)
        off = i - cand - 1
        length_code = mlen - 2
        if length_code < 7:
            out.append((length_code << 5) | (off >> 8))
        else:
            out.append((7 << 5) | (off >> 8))
            out.append(length_code - 7)
        out.append(off & 0xFF)
        # Every position inside the match is indexed too.
        end = i + mlen
        j = i + 1
        while j < min(end, limit):
            table[data[j : j + 3]] = j
            j += 1
        i = end
        lit_start = i
    _lzf_emit_literals(out, data, lit_start, n)
    return bytes(out)


# -- LZ4 ---------------------------------------------------------------
_LZ4_MIN_MATCH = 4
_LZ4_MFLIMIT = 12
_LZ4_LAST_LITERALS = 5
_LZ4_MAX_DISTANCE = 65535


def _lz4_write_length(out: bytearray, value: int) -> None:
    """Append the 15/255 extension byte encoding of ``value`` (>= 15)."""
    value -= 15
    while value >= 255:
        out.append(255)
        value -= 255
    out.append(value)


def _lz4_emit_sequence(
    out: bytearray,
    data: bytes,
    lit_start: int,
    lit_end: int,
    offset: int,
    match_len: int,
) -> None:
    lit_len = lit_end - lit_start
    token_lit = min(lit_len, 15)
    token_match = min(match_len - _LZ4_MIN_MATCH, 15)
    out.append((token_lit << 4) | token_match)
    if lit_len >= 15:
        _lz4_write_length(out, lit_len)
    out += data[lit_start:lit_end]
    out.append(offset & 0xFF)
    out.append(offset >> 8)
    if match_len - _LZ4_MIN_MATCH >= 15:
        _lz4_write_length(out, match_len - _LZ4_MIN_MATCH)


def _lz4_emit_last_literals(out: bytearray, data: bytes, lit_start: int) -> None:
    lit_len = len(data) - lit_start
    token_lit = min(lit_len, 15)
    out.append(token_lit << 4)
    if lit_len >= 15:
        _lz4_write_length(out, lit_len)
    out += data[lit_start:]


def lz4_compress_reference(data: bytes) -> bytes:
    n = len(data)
    if n == 0:
        # A zero-length block still needs a terminating token.
        return b"\x00"
    out = bytearray()
    if n < _LZ4_MFLIMIT + 1:
        _lz4_emit_last_literals(out, data, 0)
        return bytes(out)
    table: dict[bytes, int] = {}
    lit_start = 0
    i = 0
    match_limit = n - _LZ4_MFLIMIT  # last position a match may start at (excl)
    while i < match_limit:
        key = data[i : i + 4]
        cand = table.get(key)
        table[key] = i
        if cand is None or i - cand > _LZ4_MAX_DISTANCE:
            i += 1
            continue
        # Extend the match; it must leave LASTLITERALS bytes of literals.
        max_len = n - _LZ4_LAST_LITERALS - i
        mlen = _LZ4_MIN_MATCH
        while mlen < max_len and data[cand + mlen] == data[i + mlen]:
            mlen += 1
        if mlen < _LZ4_MIN_MATCH:
            i += 1
            continue
        _lz4_emit_sequence(out, data, lit_start, i, i - cand, mlen)
        end = i + mlen
        j = i + 1
        stop = min(end, match_limit)
        while j < stop:
            table[data[j : j + 4]] = j
            j += 1
        i = end
        lit_start = i
    _lz4_emit_last_literals(out, data, lit_start)
    return bytes(out)
