"""The text and compressed chunk generators as they stood before the
replayed word loop, kept as the test oracle.

This is ``TextChunk`` / ``CompressedChunk`` from ``repro.sdgen.chunks``
from when the text loop drew ``rng.random()`` (and, for 15 % of words,
``rng.integers(0, 10**6)``) once per word through the ``Generator``
API, moved here verbatim apart from the imports.  They define the bytes
and the generator state that the production classes, which replay the
same PCG64 stream from one block of raw outputs, must reproduce;
``tests/test_chunks_differential.py`` compares the two after every
call.  Do not optimise this file.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.sdgen.chunks import _VOCAB, ChunkGenerator

__all__ = ["TextChunk", "CompressedChunk"]


class TextChunk(ChunkGenerator):
    """Prose-like text: Zipf-weighted words, digits, punctuation.

    Calibrated to real-text behaviour at 4 KB granularity: zlib-6 ≈ 2.4x,
    LZF ≈ 1.6x.
    """

    kind = "text"

    def __init__(self) -> None:
        ranks = np.arange(1, len(_VOCAB) + 1, dtype=np.float64)
        weights = 1.0 / ranks
        self._probs = weights / weights.sum()

    def generate(self, rng: np.random.Generator, size: int) -> bytes:
        n_words = size // 5 + 16
        words = rng.choice(_VOCAB, size=n_words, p=self._probs)
        pieces = []
        for i, w in enumerate(words):
            pieces.append(w)
            if rng.random() < 0.15:
                pieces.append(" " + str(rng.integers(0, 10**6)))
            pieces.append(".\n" if i % 11 == 10 else " ")
        return self._fit("".join(pieces).encode("ascii"), size)


class CompressedChunk(ChunkGenerator):
    """Already-compressed data (models JPEG/video/zip payloads).

    Built by DEFLATE-compressing text, so it has compressed-format
    structure but near-zero residual compressibility.
    """

    kind = "compressed"

    def __init__(self) -> None:
        self._text = TextChunk()

    def generate(self, rng: np.random.Generator, size: int) -> bytes:
        out = bytearray()
        while len(out) < size:
            raw = self._text.generate(rng, max(4096, size * 3))
            out += zlib.compress(raw, 6)
        return bytes(out[:size])
