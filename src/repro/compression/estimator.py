"""Compressibility estimation by sampling (paper §III-D).

EDC "checks the data compressibility with a sampling technique" and
writes data it judges non-compressible straight through.  The paper cites
Harnik et al., *To Zip or not to Zip* (FAST'13), whose estimator combines
three cheap signals, reproduced here:

1. **core-set size** — how few distinct byte values cover most of the
   data; tiny core sets compress extremely well.
2. **byte entropy** — an upper bound on symbol-level compressibility;
   near-8-bit entropy means "already compressed / encrypted".
3. **sampled compression** — actually compress a small, evenly spread
   sample with a fast DEFLATE and extrapolate the ratio.

The heuristics short-circuit: the expensive sampled compression only runs
when the cheap signals are inconclusive.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["byte_entropy", "coreset_size", "SampledEstimator", "EstimatorStats"]

#: a core set this small (of 256 byte values) means "compressible"
CORESET_LOW = 50
#: a byte entropy this high (bits/byte) means "already compressed"
ENTROPY_HIGH = 7.5


def byte_entropy(data: bytes) -> float:
    """Shannon entropy of the byte-value distribution, in bits per byte.

    0.0 for constant data, 8.0 for uniformly random bytes.
    """
    if not data:
        return 0.0
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    probs = counts[counts > 0] / len(data)
    return float(-(probs * np.log2(probs)).sum())


def coreset_size(data: bytes, coverage: float = 0.9) -> int:
    """Smallest number of distinct byte values covering ``coverage`` of the data.

    Harnik et al. observe that highly compressible data has a small core
    set (a handful of symbols account for most bytes) while random data
    needs ~``coverage * 256`` symbols.
    """
    if not 0 < coverage <= 1:
        raise ValueError(f"coverage must be in (0, 1], got {coverage!r}")
    if not data:
        return 0
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    counts = np.sort(counts)[::-1]
    needed = coverage * len(data)
    cumulative = np.cumsum(counts)
    return int(np.searchsorted(cumulative, needed) + 1)


@dataclass
class EstimatorStats:
    """Counts of which short-circuit path classified each block."""

    total: int = 0
    by_coreset: int = 0
    by_entropy: int = 0
    by_sample: int = 0


class SampledEstimator:
    """Decides whether a block is worth compressing.

    Parameters
    ----------
    ratio_threshold:
        Maximum estimated *compressed fraction* (compressed/original) for
        data to count as compressible.  The paper's allocator stores
        blocks whose compressed size exceeds 75 % of the original
        uncompressed, so 0.75 is the natural default.
    sample_fraction:
        Fraction of the block fed to the sampled compression (spread over
        several sub-ranges so local structure is represented).

    The cheap signals short-circuit at :data:`CORESET_LOW` and
    :data:`ENTROPY_HIGH`.
    """

    def __init__(
        self,
        ratio_threshold: float = 0.75,
        sample_fraction: float = 0.25,
        sample_pieces: int = 4,
    ) -> None:
        if not 0 < ratio_threshold <= 1:
            raise ValueError(f"ratio_threshold must be in (0,1]: {ratio_threshold!r}")
        if not 0 < sample_fraction <= 1:
            raise ValueError(f"sample_fraction must be in (0,1]: {sample_fraction!r}")
        if sample_pieces < 1:
            raise ValueError(f"sample_pieces must be >= 1: {sample_pieces!r}")
        self.ratio_threshold = ratio_threshold
        self.sample_fraction = sample_fraction
        self.sample_pieces = sample_pieces
        self.stats = EstimatorStats()

    # ------------------------------------------------------------------
    def _sample(self, data: bytes) -> bytes:
        """Evenly spread sub-ranges totalling ``sample_fraction`` of the data."""
        n = len(data)
        total = max(64, int(n * self.sample_fraction))
        if total >= n:
            return data
        piece = max(16, total // self.sample_pieces)
        stride = n // self.sample_pieces
        parts = [
            data[k * stride : k * stride + piece] for k in range(self.sample_pieces)
        ]
        return b"".join(parts)

    def estimate_compressed_fraction(self, data: bytes) -> float:
        """Estimated compressed/original size fraction (lower = more compressible)."""
        if not data:
            return 1.0
        sample = self._sample(data)
        compressed = zlib.compress(sample, 1)
        return min(1.5, len(compressed) / len(sample))

    # ------------------------------------------------------------------
    def is_compressible(self, data: bytes) -> bool:
        """True when compression is expected to pay off for this block."""
        if not data:
            return False
        self.stats.total += 1
        if coreset_size(data) <= CORESET_LOW:
            self.stats.by_coreset += 1
            return True
        if byte_entropy(data) >= ENTROPY_HIGH:
            self.stats.by_entropy += 1
            return False
        self.stats.by_sample += 1
        return self.estimate_compressed_fraction(data) <= self.ratio_threshold
