"""Standard-library codec wrappers and the pass-through Null codec.

The paper's "Gzip" baseline is DEFLATE (zlib level 6) and its "Bzip2"
baseline is the BWT-based bz2 at maximum effort.  LZMA rounds out the
high-ratio end of the spectrum for the codec-efficiency study (Fig 2).
"""

from __future__ import annotations

import bz2
import lzma
import zlib
from typing import Optional

from repro.compression.codec import Codec, CodecError

__all__ = ["NullCodec", "ZlibCodec", "Bz2Codec", "LzmaCodec"]


class NullCodec(Codec):
    """Pass-through codec: tag 0, "no compression applied" (Fig 5)."""

    name = "none"
    tag = 0

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, data: bytes, original_size: Optional[int] = None) -> bytes:
        if original_size is not None and len(data) != original_size:
            raise CodecError(
                f"stored size {len(data)} != expected {original_size}"
            )
        return data


class ZlibCodec(Codec):
    """DEFLATE via zlib; level 6 is the paper's "Gzip" scheme."""

    def __init__(self, name: str = "gzip", tag: int = 3, level: int = 6) -> None:
        if not 1 <= level <= 9:
            raise ValueError(f"zlib level must be 1-9, got {level}")
        self.name = name
        self.tag = tag
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, data: bytes, original_size: Optional[int] = None) -> bytes:
        try:
            out = zlib.decompress(data)
        except zlib.error as exc:
            raise CodecError(f"zlib: {exc}") from exc
        if original_size is not None and len(out) != original_size:
            raise CodecError(
                f"zlib decoded {len(out)} bytes, expected {original_size}"
            )
        return out


class Bz2Codec(Codec):
    """bzip2 at the default block size (the paper's highest-ratio codec)."""

    name = "bzip2"
    tag = 4

    def __init__(self, level: int = 9) -> None:
        if not 1 <= level <= 9:
            raise ValueError(f"bz2 level must be 1-9, got {level}")
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return bz2.compress(data, self.level)

    def decompress(self, data: bytes, original_size: Optional[int] = None) -> bytes:
        try:
            out = bz2.decompress(data)
        except (OSError, ValueError) as exc:
            raise CodecError(f"bz2: {exc}") from exc
        if original_size is not None and len(out) != original_size:
            raise CodecError(
                f"bz2 decoded {len(out)} bytes, expected {original_size}"
            )
        return out


#: xz/LZMA compression preset (0-9): a light one
LZMA_PRESET = 1


class LzmaCodec(Codec):
    """xz/LZMA at :data:`LZMA_PRESET`; extends the ratio-vs-speed spectrum."""

    name = "lzma"
    tag = 5

    def compress(self, data: bytes) -> bytes:
        return lzma.compress(data, preset=LZMA_PRESET)

    def decompress(self, data: bytes, original_size: Optional[int] = None) -> bytes:
        try:
            out = lzma.decompress(data)
        except lzma.LZMAError as exc:
            raise CodecError(f"lzma: {exc}") from exc
        if original_size is not None and len(out) != original_size:
            raise CodecError(
                f"lzma decoded {len(out)} bytes, expected {original_size}"
            )
        return out
