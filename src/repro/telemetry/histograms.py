"""Streaming distributions: log2 histograms and their registry.

The device models previously kept every latency sample in a Python list
(O(n) memory over a replay).  :class:`Log2Histogram` replaces that on
telemetry paths: values land in fixed buckets — one power-of-two decade
split into ``sub_buckets`` linear sub-buckets (the HDRHistogram layout)
— so memory is constant and any percentile is answerable with bounded
relative error (``<= 1/sub_buckets``, i.e. ~6 % at the default 16).

All values are non-negative finite reals (latencies in seconds, sizes
in bytes).  NaN and infinity are rejected loudly: such a sample
silently poisons every downstream mean/percentile.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = ["Log2Histogram", "MetricsRegistry"]

#: Default quantiles reported by :meth:`Log2Histogram.quantiles`.
_DEFAULT_QS = (50.0, 95.0, 99.0, 99.9)

#: Binary exponent range every :class:`Log2Histogram` covers exactly.
#: Values below ``2**MIN_EXP`` count as zero-bucket samples; values at
#: or above ``2**MAX_EXP`` clamp into the top bucket (both remain in
#: ``count``/``sum`` exactly).  The range spans ~1e-12 s to ~2e6 s, far
#: beyond any simulated latency.
MIN_EXP = -40
MAX_EXP = 21


class Log2Histogram:
    """Fixed-memory histogram with log2 buckets and linear sub-buckets.

    Parameters
    ----------
    sub_buckets:
        Linear subdivisions per power of two; relative quantile error is
        bounded by ``1/sub_buckets``.  The exponent range is
        :data:`MIN_EXP` to :data:`MAX_EXP`.
    """

    def __init__(self, sub_buckets: int = 16) -> None:
        if sub_buckets < 1:
            raise ValueError(f"sub_buckets must be >= 1: {sub_buckets!r}")
        self.sub_buckets = sub_buckets
        self._counts: List[int] = [0] * ((MAX_EXP - MIN_EXP) * sub_buckets)
        self._zero = 0
        self.count = 0
        self.sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # ------------------------------------------------------------------
    def _index(self, value: float) -> int:
        m, e = math.frexp(value)  # value = m * 2**e, m in [0.5, 1)
        if e <= MIN_EXP:
            return -1  # zero bucket
        if e > MAX_EXP:
            return len(self._counts) - 1
        sub = int((m - 0.5) * 2.0 * self.sub_buckets)
        if sub >= self.sub_buckets:  # m == 1.0 - eps edge
            sub = self.sub_buckets - 1
        return (e - 1 - MIN_EXP) * self.sub_buckets + sub

    def _bucket_bounds(self, idx: int) -> Tuple[float, float]:
        decade, sub = divmod(idx, self.sub_buckets)
        lo2 = math.ldexp(1.0, MIN_EXP + decade)  # 2**(MIN_EXP+decade)
        width = lo2 / self.sub_buckets
        return lo2 + sub * width, lo2 + (sub + 1) * width

    # ------------------------------------------------------------------
    def add(self, value: float, n: int = 1) -> None:
        """Record ``value`` (``n`` times).  Rejects negatives, NaN and
        infinity."""
        if not value < math.inf:  # NaN or +inf
            raise ValueError(f"NaN or infinite sample rejected: {value!r}")
        if value < 0:  # -inf included
            raise ValueError(f"negative sample: {value!r}")
        if n < 1:
            raise ValueError(f"n must be >= 1: {n!r}")
        self.count += n
        self.sum += value * n
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value == 0.0:
            self._zero += n
            return
        idx = self._index(value)
        if idx < 0:
            self._zero += n
        else:
            self._counts[idx] += n

    # ------------------------------------------------------------------
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    def percentile(self, p: float) -> float:
        """p-th percentile (0-100), interpolated within its bucket.

        Raises :class:`ValueError` on an empty histogram — a silent 0.0
        from "no data" is indistinguishable from a real fast path.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p!r}")
        if self.count == 0:
            raise ValueError("percentile of an empty histogram")
        if p == 0:
            return self.min()
        if p == 100:
            return self.max()
        target = p / 100.0 * self.count
        cum = self._zero
        if target <= cum:
            return 0.0
        for idx, c in enumerate(self._counts):
            if c == 0:
                continue
            if cum + c >= target:
                lo, hi = self._bucket_bounds(idx)
                frac = (target - cum) / c
                v = lo + frac * (hi - lo)
                # exact extrema beat bucket edges at the tails
                return min(max(v, self.min()), self.max())
            cum += c
        return self.max()  # pragma: no cover - float-edge fallback

    def quantiles(
        self, qs: Tuple[float, ...] = _DEFAULT_QS
    ) -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., ...}`` for the requested quantiles."""
        out: Dict[str, float] = {}
        for q in qs:
            label = f"p{q:g}".replace(".", "_")
            out[label] = self.percentile(q)
        return out

    def summary(self) -> Dict[str, float]:
        """Count, sum, mean, min/max and the default quantiles."""
        out: Dict[str, float] = {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean(),
            "min": self.min(),
            "max": self.max(),
        }
        if self.count:
            out.update(self.quantiles())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Log2Histogram(n={self.count}, mean={self.mean():.3g}, "
            f"max={self.max():.3g})"
        )


class MetricsRegistry:
    """Named histograms, created on first use.

    Distributions only: every count and level of the stack has one owner
    (``GcStats``, ``SimulatedSSD.stats``, ``ElasticPolicy.band_counts``,
    the device's latency recorders, the sampler's series), read where
    it is kept rather than copied here.
    """

    def __init__(self) -> None:
        self._histograms: Dict[str, Log2Histogram] = {}

    def histogram(self, name: str) -> Log2Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Log2Histogram()
        return h

    @property
    def histograms(self) -> Dict[str, Log2Histogram]:
        return dict(self._histograms)
