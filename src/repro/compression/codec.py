"""Codec abstraction and registry.

EDC records which algorithm compressed each block in a 3-bit ``Tag``
field of the mapping entry (paper Fig 5); tag ``0`` means "stored
uncompressed".  The registry below fixes the tag assignment for the whole
system so that mapping entries written by one component can be decoded by
another.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterator, Optional

__all__ = [
    "Codec",
    "CodecError",
    "CodecRegistry",
    "default_registry",
    "TAG_BITS",
    "MAX_TAG",
]

TAG_BITS = 3
MAX_TAG = (1 << TAG_BITS) - 1


class CodecError(ValueError):
    """Raised on malformed compressed input or invalid codec use."""


class Codec(ABC):
    """A lossless block codec.

    Subclasses must round-trip arbitrary byte strings:
    ``decompress(compress(data), len(data)) == data``.
    """

    #: Registry tag (0-7); set by subclasses.
    tag: int = -1
    #: Human-readable identifier; set by subclasses.
    name: str = "abstract"

    @abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress ``data``; output may be larger than the input."""

    @abstractmethod
    def decompress(self, data: bytes, original_size: Optional[int] = None) -> bytes:
        """Invert :meth:`compress`.

        ``original_size`` is a hint (EDC always knows it from the mapping
        entry); codecs whose wire format is not self-terminating may
        require it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} tag={self.tag}>"


class CodecRegistry:
    """Maps codec names and 3-bit tags to :class:`Codec` instances."""

    def __init__(self) -> None:
        self._by_name: Dict[str, Codec] = {}
        self._by_tag: Dict[int, Codec] = {}

    def register(self, codec: Codec) -> Codec:
        if not 0 <= codec.tag <= MAX_TAG:
            raise CodecError(
                f"tag {codec.tag} of codec {codec.name!r} does not fit in "
                f"{TAG_BITS} bits"
            )
        if codec.name in self._by_name:
            raise CodecError(f"codec name already registered: {codec.name!r}")
        if codec.tag in self._by_tag:
            raise CodecError(
                f"tag {codec.tag} already taken by "
                f"{self._by_tag[codec.tag].name!r}"
            )
        self._by_name[codec.name] = codec
        self._by_tag[codec.tag] = codec
        return codec

    def get(self, name: str) -> Codec:
        try:
            return self._by_name[name]
        except KeyError:
            raise CodecError(
                f"unknown codec {name!r}; known: {sorted(self._by_name)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Codec]:
        return iter(self._by_name.values())

    def names(self) -> list[str]:
        return sorted(self._by_name)


def default_registry() -> CodecRegistry:
    """A fresh registry with the paper's codec roster.

    Tag assignment (3 bits, Fig 5; ``000`` = uncompressed):

    ====  =========  =============================================
    tag   name       implementation
    ====  =========  =============================================
    0     none       pass-through
    1     lzf        pure-Python libLZF format (this repo)
    2     lz4        pure-Python LZ4 block format (this repo)
    3     gzip       zlib level 6 (the paper's "Gzip")
    4     bzip2      bz2 level 9
    5     lzma       xz/lzma preset 1
    6     zlib-1     zlib level 1 (fast DEFLATE, used by the estimator)
    7     —          unassigned
    ====  =========  =============================================
    """
    # Imported here to avoid a circular import at module load.
    from repro.compression.lz4 import LZ4Codec
    from repro.compression.lzf import LZFCodec
    from repro.compression.stdcodecs import (
        Bz2Codec,
        LzmaCodec,
        NullCodec,
        ZlibCodec,
    )

    reg = CodecRegistry()
    reg.register(NullCodec())
    reg.register(LZFCodec())
    reg.register(LZ4Codec())
    reg.register(ZlibCodec(name="gzip", tag=3, level=6))
    reg.register(Bz2Codec())
    reg.register(LzmaCodec())
    reg.register(ZlibCodec(name="zlib-1", tag=6, level=1))
    return reg
