"""Compression substrate.

Everything EDC needs to compress data and reason about compression:

- :mod:`~repro.compression.codec` — the :class:`Codec` abstraction, the
  3-bit tag space from the paper's mapping entry (Fig 5), and the default
  registry.
- :mod:`~repro.compression.lzf` / :mod:`~repro.compression.lz4` — from-
  scratch pure-Python implementations of the LZF and LZ4 block formats
  (the fast codecs in the paper's Fig 2); their encoders share the
  per-buffer candidate table of :mod:`~repro.compression.matchtable`.
- :mod:`~repro.compression.stdcodecs` — zlib (the paper's "Gzip"), bz2
  and lzma wrappers plus the pass-through Null codec.
- :mod:`~repro.compression.estimator` — compressibility estimation by
  sampling (§III-D), used for the write-through gate.
- :mod:`~repro.compression.costmodel` — calibrated codec throughput model
  that supplies *simulated* compression/decompression times (the pure-
  Python codecs are ratio-faithful but not speed-faithful; see DESIGN.md).
"""

from repro.compression.codec import (
    Codec,
    CodecError,
    CodecRegistry,
    CompressionResult,
    default_registry,
)
from repro.compression.costmodel import CodecCostModel, CodecSpeed
from repro.compression.estimator import (
    SampledEstimator,
    byte_entropy,
    coreset_size,
)
from repro.compression.huffman import HuffmanCodec, huffman_compress, huffman_decompress
from repro.compression.lz4 import LZ4Codec, lz4_compress, lz4_decompress
from repro.compression.lzf import LZFCodec, lzf_compress, lzf_decompress
from repro.compression.stdcodecs import Bz2Codec, LzmaCodec, NullCodec, ZlibCodec

__all__ = [
    "Codec",
    "CodecError",
    "CodecRegistry",
    "CompressionResult",
    "default_registry",
    "CodecCostModel",
    "CodecSpeed",
    "SampledEstimator",
    "byte_entropy",
    "coreset_size",
    "LZFCodec",
    "lzf_compress",
    "lzf_decompress",
    "LZ4Codec",
    "HuffmanCodec",
    "huffman_compress",
    "huffman_decompress",
    "lz4_compress",
    "lz4_decompress",
    "NullCodec",
    "ZlibCodec",
    "Bz2Codec",
    "LzmaCodec",
]
