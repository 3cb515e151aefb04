"""Streaming metrics: log2 histograms, counters, gauges, and a registry.

The device models previously kept every latency sample in a Python list
(O(n) memory over a replay).  :class:`Log2Histogram` replaces that on
telemetry paths: values land in fixed buckets — one power-of-two decade
split into ``sub_buckets`` linear sub-buckets (the HDRHistogram layout)
— so memory is constant and any percentile is answerable with bounded
relative error (``<= 1/sub_buckets``, i.e. ~6 % at the default 16).

All values are non-negative reals (latencies in seconds, sizes in
bytes).  NaN is rejected loudly: a NaN sample silently poisons every
downstream mean/percentile.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = ["Log2Histogram", "Counter", "Gauge", "MetricsRegistry"]

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
        """Record ``value`` (``n`` times).  Rejects negatives and NaN."""
        if value != value:  # NaN
            raise ValueError("NaN sample rejected")
        if value < 0:
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

    def merge(self, other: "Log2Histogram") -> None:
        """Fold ``other`` into this histogram (layouts must match)."""
        if other.sub_buckets != self.sub_buckets:
            raise ValueError("cannot merge histograms with different layouts")
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self._zero += other._zero
        self.count += other.count
        self.sum += other.sum
        for v in (other._min, other._max):
            if v is None:
                continue
            if self._min is None or v < self._min:
                self._min = v
            if self._max is None or v > self._max:
                self._max = v

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


class Counter:
    """Monotonically-increasing scalar (floats allowed: byte- and
    second-valued counters are common)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter increment must be non-negative: {n!r}")
        self.value += n


class Gauge:
    """Last-written value with min/max watermarks."""

    __slots__ = ("name", "value", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def set(self, v: float) -> None:
        if v != v:
            raise ValueError("NaN gauge value rejected")
        self.value = v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first use."""

    def __init__(self, sub_buckets: int = 16) -> None:
        self.sub_buckets = sub_buckets
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Log2Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Log2Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Log2Histogram(self.sub_buckets)
        return h

    @property
    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, Log2Histogram]:
        return dict(self._histograms)

    def as_dict(self) -> Dict[str, object]:
        """Flat snapshot for JSON export."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
        }
