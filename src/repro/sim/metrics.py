"""Measurement primitives shared by the device models and the harness.

- :class:`LatencyRecorder` — accumulates per-request latencies and reports
  mean / percentiles (the paper's headline metric is *average response
  time*, Figs 10 and 11).
- :class:`TimeSeries` — fixed-width binning of a value over virtual time,
  used to reproduce the burstiness plots (Fig 3).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

__all__ = ["LatencyRecorder", "TimeSeries"]


class LatencyRecorder:
    """Accumulates scalar samples (seconds) and reports summary statistics.

    The samples are folded, in order, into a constant-memory
    :class:`~repro.telemetry.histograms.Log2Histogram` when a query
    needs it (approximate percentiles, min, max, merge) rather than on
    every :meth:`add`: the histogram is a pure function of the ordered
    samples, so every answer is the one an eagerly fed histogram gives.
    Once ``count`` exceeds ``approx_threshold`` the percentile queries
    answer from the histogram in O(buckets) instead of sorting the
    sample list.  Below the threshold — and for mean/total at any size —
    the answers stay exact.  The histogram's relative quantile error is
    bounded by ``1/sub_buckets`` (1/32 ≈ 3 % at this recorder's
    resolution).

    Pass ``approx_threshold=None`` to force exact percentiles forever.
    """

    #: Sample count past which percentiles answer from the histogram.
    DEFAULT_APPROX_THRESHOLD = 4096

    def __init__(
        self,
        name: str = "latency",
        approx_threshold: "int | None" = DEFAULT_APPROX_THRESHOLD,
    ) -> None:
        if approx_threshold is not None and approx_threshold < 1:
            raise ValueError(
                f"approx_threshold must be >= 1 or None: {approx_threshold!r}"
            )
        self.name = name
        self.approx_threshold = approx_threshold
        self._samples: list[float] = []
        self._sum = 0.0
        # Imported here (not at module top) to keep repro.sim free of a
        # hard import edge onto repro.telemetry at module-load time.
        from repro.telemetry.histograms import Log2Histogram

        self._hist = Log2Histogram(sub_buckets=32)
        #: how many leading samples ``_hist`` already holds
        self._folded = 0

    def add(self, value: float) -> None:
        if value != value:  # NaN: would silently poison mean/percentiles
            raise ValueError("NaN latency sample rejected")
        if value < 0:
            raise ValueError(f"negative latency sample: {value!r}")
        self._samples.append(value)
        self._sum += value

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    def _histogram(self):
        """The histogram of every sample so far (folds the pending ones)."""
        hist = self._hist
        for value in self._samples[self._folded:]:
            hist.add(value)
        self._folded = len(self._samples)
        return hist

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def uses_approx(self) -> bool:
        """Whether percentile queries currently answer from the histogram."""
        return (
            self.approx_threshold is not None
            and len(self._samples) > self.approx_threshold
        )

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return self._sum / len(self._samples)

    def percentile(self, p: float) -> float:
        """p-th percentile (0-100).

        Exact (sorted-sample interpolation) up to ``approx_threshold``
        samples, then answered from the log2 histogram with bounded
        relative error.  Raises :class:`ValueError` when no samples were
        recorded: a silent 0.0 (or a numpy all-NaN warning) would be
        read as "this path was instantaneous" rather than "this path
        never ran".
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p!r}")
        if not self._samples:
            raise ValueError(
                f"percentile of empty recorder {self.name!r} "
                "(no samples recorded)"
            )
        if self.uses_approx:
            return self._histogram().percentile(p)
        return float(np.percentile(self._samples, p))

    def max(self) -> float:
        return self._histogram().max() if self._samples else 0.0

    def min(self) -> float:
        return self._histogram().min() if self._samples else 0.0

    def total(self) -> float:
        return self._sum

    def samples(self) -> np.ndarray:
        """A copy of the raw samples as a numpy array."""
        return np.asarray(self._samples, dtype=np.float64)

    def merge(self, other: "LatencyRecorder") -> None:
        hist = self._histogram()
        hist.merge(other._histogram())
        self._samples.extend(other._samples)
        self._sum += other._sum
        self._folded = len(self._samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyRecorder({self.name!r}, n={self.count}, "
            f"mean={self.mean():.6f})"
        )


class TimeSeries:
    """Accumulates ``(time, value)`` points into fixed-width bins.

    ``bins()`` returns ``(edges, sums)`` where ``sums[i]`` is the sum of
    values with ``edges[i] <= t < edges[i] + bin_width``.  Used to plot
    I/O intensity over time (Fig 3) and the monitor's view of the
    workload.
    """

    def __init__(self, bin_width: float = 1.0) -> None:
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive: {bin_width!r}")
        self.bin_width = bin_width
        self._bins: dict[int, float] = {}
        self._max_bin = -1

    def add(self, time: float, value: float = 1.0) -> None:
        if time < 0:
            raise ValueError(f"negative time: {time!r}")
        idx = int(time / self.bin_width)
        self._bins[idx] = self._bins.get(idx, 0.0) + value
        if idx > self._max_bin:
            self._max_bin = idx

    def bins(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(edges, sums)`` arrays covering bin 0 .. max seen."""
        n = self._max_bin + 1
        edges = np.arange(n, dtype=np.float64) * self.bin_width
        sums = np.zeros(n, dtype=np.float64)
        for idx, v in self._bins.items():
            sums[idx] = v
        return edges, sums

    def rates(self) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`bins` but values divided by the bin width (per-second)."""
        edges, sums = self.bins()
        return edges, sums / self.bin_width

    @property
    def empty(self) -> bool:
        return not self._bins
