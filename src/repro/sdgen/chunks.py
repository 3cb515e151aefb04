"""Chunk generators spanning the compressibility spectrum.

Each generator produces byte blocks of a requested size whose structure
mimics one class of real data.  Together they reproduce the skewed
compressibility distribution the paper cites (§I): a subset of blocks
yields most of the savings and ~30 % of blocks barely compress at all.

Approximate per-class behaviour under zlib-6 on 4 KB blocks:

==============  =================  ==========  ===========================
class           zlib-6 (4 KB)      LZF (4 KB)  mimics
==============  =================  ==========  ===========================
zero            > 100x             > 40x       sparse/unwritten regions
text            ~2.4x              ~1.6x       prose, logs, documents
code            ~4-5x              ~2.5-3x     source code (templated)
binary-record   ~2.3x              ~1.4x       database pages, structs
random          ~1.0x              <1.0x       encrypted / random data
compressed      ~1.0x              <1.0x       JPEG/MP4/zip payloads
==============  =================  ==========  ===========================

The text and binary-record calibrations deliberately leave a wide gap
between DEFLATE and the match-only codecs (LZF/LZ4): on real data the
Huffman stage is worth ~1.5-1.8x, and the paper's Fig 8 separation of
Gzip and Lzf depends on it.

Every class draws through numpy's ``Generator`` API except
:class:`TextChunk`, which replays it: its per-word draws are read from
one block of raw PCG64 outputs, so its bytes rest on numpy's contract
for that bit generator.  ``Generator.random()`` is ``next_double``, the
top 53 bits of one 64-bit output times 2**-53.  ``integers(0, 10**6)``
is Lemire's bounded method on ``next_uint32``, which returns the upper
half-word buffered by the previous draw when there is one
(``has_uint32`` / ``uinteger`` in ``bit_generator.state``), and
otherwise the lower half of a fresh output, buffering its upper half.
``tests/reference_chunks.py`` keeps the per-word loop that defines the
bytes; ``tests/test_chunks_differential.py`` holds the two equal, bytes
and generator state, under every class interleaving.
"""

from __future__ import annotations

import operator
import zlib
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

__all__ = [
    "ChunkGenerator",
    "ZeroChunk",
    "TextChunk",
    "CodeChunk",
    "BinaryRecordChunk",
    "RandomChunk",
    "CompressedChunk",
    "CHUNK_CLASSES",
]


class ChunkGenerator(ABC):
    """Produces data blocks of one compressibility class."""

    #: registry key
    kind: str = "abstract"

    @abstractmethod
    def generate(self, rng: np.random.Generator, size: int) -> bytes:
        """Return exactly ``size`` bytes of this class's content."""

    def _fit(self, data: bytes, size: int) -> bytes:
        """Trim or cycle ``data`` to exactly ``size`` bytes."""
        if len(data) >= size:
            return data[:size]
        reps = size // max(1, len(data)) + 1
        return (data * reps)[:size]


class ZeroChunk(ChunkGenerator):
    """All zeroes — maximally compressible (sparse regions)."""

    kind = "zero"

    def generate(self, rng: np.random.Generator, size: int) -> bytes:
        return bytes(size)


#: Syllables used to build a wide synthetic vocabulary.  A large vocabulary
#: with Zipf frequencies gives text realistic *literal* entropy: DEFLATE's
#: Huffman stage gains substantially over match-only codecs (LZF/LZ4), the
#: same ~1.5-1.8x ratio gap observed on real prose and source code.
_SYLLABLES = (
    "ab er ion st tr en qu om al ix un re co da li mo pa se ti vu ne ka ro "
    "fy ger lan tor bis mul dri vex pol sa"
).split()

#: Deterministic vocabulary (independent of the per-chunk rng so content
#: remains reproducible given the chunk seed alone).
_VOCAB_RNG = np.random.default_rng(0x5DC)
_VOCAB = np.array(
    [
        "".join(_VOCAB_RNG.choice(_SYLLABLES, size=int(_VOCAB_RNG.integers(2, 5))))
        for _ in range(1500)
    ]
)

#: a word draws a number when its ``rng.random()`` is below this
_NUMBER_P = 0.15
#: numbers are ``rng.integers(0, _NUMBER_RANGE)``
_NUMBER_RANGE = 10**6
#: Lemire's rejection bound for that range: ``(2**32 - 1 - (range - 1)) %
#: range``; a draw whose low 32 bits of ``u32 * range`` fall below it is
#: redrawn
_NUMBER_REJECT = 2**32 % _NUMBER_RANGE
_LOW32 = 0xFFFFFFFF
#: words between full stops, each stop ending a line
_SENTENCE = [" "] * 10 + [".\n"]


def _scan_numbers(
    raw: np.ndarray, n_words: int, has_uint32: bool, uinteger: int
) -> Optional[Tuple[List[Tuple[int, int]], int, bool, int]]:
    """Replay :class:`TextChunk`'s per-word draws over raw PCG64 outputs.

    Word ``i`` takes one output as its ``rng.random()``.  Below
    :data:`_NUMBER_P` it then draws ``rng.integers(0, 10**6)``: a
    ``next_uint32`` (the buffered half-word if ``has_uint32``, else the
    low half of the next output, buffering the high half) scaled by
    Lemire's method, redrawn while rejected.  Only those words are
    walked here: the others take one output each.

    Returns ``(numbers, used, has_uint32, uinteger)`` — ``(word, value)``
    for every word that drew a number, the outputs consumed and the
    half-word buffer after the last word — or ``None`` when ``raw`` runs
    out first.  A pure function of its arguments.
    """
    candidates = np.flatnonzero((raw >> np.uint64(11)) * 2.0**-53 < _NUMBER_P)
    n_raw = len(raw)
    numbers = []
    pos = word = 0
    for j in candidates.tolist():
        if j < pos:
            continue  # an output an integer draw already took
        if word + j - pos >= n_words:
            break
        word += j - pos
        pos = j + 1
        while True:
            if has_uint32:
                u32 = uinteger
                has_uint32 = False
            elif pos < n_raw:
                out = int(raw[pos])
                pos += 1
                u32, uinteger, has_uint32 = out & _LOW32, out >> 32, True
            else:
                return None
            m = u32 * _NUMBER_RANGE
            if m & _LOW32 >= _NUMBER_REJECT:
                break
        numbers.append((word, m >> 32))
        word += 1
    used = pos + n_words - word
    if used > n_raw:
        return None
    return numbers, used, has_uint32, uinteger


class TextChunk(ChunkGenerator):
    """Prose-like text: Zipf-weighted words, digits, punctuation.

    Calibrated to real-text behaviour at 4 KB granularity: zlib-6 ≈ 2.4x,
    LZF ≈ 1.6x.  Needs a PCG64 generator (see the module docstring).
    """

    kind = "text"

    def __init__(self) -> None:
        ranks = np.arange(1, len(_VOCAB) + 1, dtype=np.float64)
        weights = 1.0 / ranks
        self._probs = weights / weights.sum()

    def generate(self, rng: np.random.Generator, size: int) -> bytes:
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(
                f"TextChunk replays PCG64 output; got {type(bitgen).__name__}"
            )
        n_words = size // 5 + 16
        words = _VOCAB[rng.choice(len(_VOCAB), size=n_words, p=self._probs)].tolist()
        state = bitgen.state
        raw = bitgen.random_raw(2 * n_words + 16)
        while (scan := _scan_numbers(
            raw, n_words, bool(state["has_uint32"]), state["uinteger"]
        )) is None:
            raw = np.concatenate((raw, bitgen.random_raw(len(raw))))
        numbers, used, has_uint32, uinteger = scan
        bitgen.state = state
        bitgen.advance(used)  # also clears the half-word buffer ...
        bitgen.state = {  # ... which the draws left as scanned
            **bitgen.state, "has_uint32": int(has_uint32), "uinteger": uinteger,
        }
        seps = (_SENTENCE * (n_words // len(_SENTENCE) + 1))[:n_words]
        for word, value in numbers:
            seps[word] = f" {value}{seps[word]}"
        text = "".join(map(operator.add, words, seps))
        return self._fit(text.encode("ascii"), size)


_CODE_TEMPLATES = (
    "def {a}_{b}(self, {b}):\n    return self.{a} + {b}\n",
    "for {a} in range({n}):\n    {b}[{a}] = {a} * {n}\n",
    "if {a} is not None and {b} > {n}:\n    raise ValueError({a!r})\n",
    "class {A}{B}:\n    \"\"\"{a} {b} handler.\"\"\"\n    {a}: int = {n}\n",
    "    {a} = {b}.get({a!r}, {n})\n",
    "#include <{a}_{b}.h>\nstatic int {a}_{b}_init(void) {{ return {n}; }}\n",
    "struct {a}_{b} {{ uint32_t {a}; uint64_t {b}[{n}]; }};\n",
)

_IDENTIFIERS = (
    "buf page block index count state flags offset length size queue "
    "entry table node list head tail next prev data ptr ctx dev req"
).split()


class CodeChunk(ChunkGenerator):
    """Source-code-like text with heavy token repetition."""

    kind = "code"

    def generate(self, rng: np.random.Generator, size: int) -> bytes:
        pieces = []
        total = 0
        idents = _IDENTIFIERS
        while total < size:
            tpl = _CODE_TEMPLATES[int(rng.integers(0, len(_CODE_TEMPLATES)))]
            a = idents[int(rng.integers(0, len(idents)))]
            b = idents[int(rng.integers(0, len(idents)))]
            line = tpl.format(
                a=a, b=b, A=a.capitalize(), B=b.capitalize(), n=int(rng.integers(1, 64))
            )
            pieces.append(line)
            total += len(line)
        return self._fit("".join(pieces).encode("ascii"), size)


class BinaryRecordChunk(ChunkGenerator):
    """Repeated fixed-layout records with mixed-entropy fields.

    Mimics database pages / serialized structs: 32-byte records carrying
    sequential ids, 12-bit values, nearly-monotonic timestamps, a random
    2-byte checksum, low-range payload bytes and zero padding.  The
    random checksum and value noise keep LZ matches short, so match-only
    codecs trail DEFLATE, as they do on real database pages (calibrated:
    zlib-6 ≈ 2.3x, LZF ≈ 1.4x at 4 KB).
    """

    kind = "binary-record"

    def generate(self, rng: np.random.Generator, size: int) -> bytes:
        n = size // 32 + 1
        rec = np.zeros((n, 32), dtype=np.uint8)
        rec[:, 0:4] = np.arange(n, dtype="<u4").view(np.uint8).reshape(n, 4)
        rec[:, 4:8] = (
            rng.integers(0, 2**12, n).astype("<u4").view(np.uint8).reshape(n, 4)
        )
        timestamps = 1_720_000_000 + np.arange(n) * 7 + rng.integers(0, 5, n)
        rec[:, 8:12] = timestamps.astype("<u4").view(np.uint8).reshape(n, 4)
        rec[:, 12:14] = rng.integers(0, 256, (n, 2))
        rec[:, 14:22] = rng.integers(0, 4, (n, 8))
        return self._fit(rec.tobytes(), size)


class RandomChunk(ChunkGenerator):
    """Uniform random bytes — incompressible."""

    kind = "random"

    def generate(self, rng: np.random.Generator, size: int) -> bytes:
        return rng.integers(0, 256, size, dtype=np.uint8).tobytes()


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


CHUNK_CLASSES: Dict[str, Type[ChunkGenerator]] = {
    cls.kind: cls
    for cls in (
        ZeroChunk,
        TextChunk,
        CodeChunk,
        BinaryRecordChunk,
        RandomChunk,
        CompressedChunk,
    )
}
