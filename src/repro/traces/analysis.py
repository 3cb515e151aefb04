"""Workload analysis: burstiness, inter-arrivals and access skew.

The paper's motivation (§II-C) leans on three workload properties —
burst/idle alternation, high inter-arrival variance, and skewed block
popularity.  These analyzers quantify all three on any
:class:`~repro.traces.model.Trace`, real or synthetic, and back the
Fig 3 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.traces.model import Trace

__all__ = [
    "InterarrivalStats",
    "interarrival_stats",
    "BurstPeriod",
    "detect_bursts",
    "BurstinessSummary",
    "burstiness_summary",
    "access_skew",
]


@dataclass(frozen=True)
class InterarrivalStats:
    """Distributional summary of request inter-arrival times (seconds)."""

    n: int
    mean: float
    median: float
    p99: float
    max_gap: float
    cv: float  # coefficient of variation; Poisson ~ 1, bursty >> 1


def interarrival_stats(trace: Trace) -> InterarrivalStats:
    """Inter-arrival statistics of a trace (needs >= 2 requests)."""
    if len(trace) < 2:
        return InterarrivalStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    times = np.array([r.time for r in trace])
    gaps = np.diff(times)
    mean = float(gaps.mean())
    std = float(gaps.std())
    return InterarrivalStats(
        n=len(gaps),
        mean=mean,
        median=float(np.median(gaps)),
        p99=float(np.percentile(gaps, 99)),
        max_gap=float(gaps.max()),
        cv=(std / mean) if mean > 0 else 0.0,
    )


@dataclass(frozen=True)
class BurstPeriod:
    """One detected burst: consecutive bins above the threshold."""

    start: float
    end: float
    mean_rate: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def detect_bursts(
    trace: Trace,
    bin_width: float = 1.0,
    threshold_factor: float = 3.0,
) -> List[BurstPeriod]:
    """Find periods whose calculated-IOPS rate exceeds ``threshold_factor``
    times the trace mean (consecutive hot bins merge into one burst)."""
    if threshold_factor <= 0:
        raise ValueError(f"threshold_factor must be positive: {threshold_factor!r}")
    times, rates = trace.intensity_series(bin_width=bin_width)
    if len(rates) == 0:
        return []
    threshold = threshold_factor * max(rates.mean(), 1e-12)
    bursts: List[BurstPeriod] = []
    start = None
    acc: List[float] = []
    for t, r in zip(times, rates):
        if r >= threshold:
            if start is None:
                start = t
            acc.append(r)
        elif start is not None:
            bursts.append(BurstPeriod(start, t, float(np.mean(acc))))
            start, acc = None, []
    if start is not None:
        bursts.append(
            BurstPeriod(start, times[-1] + bin_width, float(np.mean(acc)))
        )
    return bursts


@dataclass(frozen=True)
class BurstinessSummary:
    """Fig 3 in numbers: how bursty/idle a workload is."""

    peak_rate: float
    mean_rate: float
    idle_fraction: float
    burst_fraction: float
    n_bursts: int

    @property
    def peak_to_mean(self) -> float:
        if self.mean_rate <= 0:
            return 0.0
        return self.peak_rate / self.mean_rate


def burstiness_summary(
    trace: Trace, bin_width: float = 1.0, idle_rate: Optional[float] = None
) -> BurstinessSummary:
    """Summarise burst/idle structure (§II-C's claim, quantified).

    ``idle_rate`` is the "little or no external load" cut-off; by default
    it is relative — 5% of the peak rate — so traces of any absolute
    intensity classify sensibly.
    """
    _, rates = trace.intensity_series(bin_width=bin_width)
    if len(rates) == 0:
        return BurstinessSummary(0.0, 0.0, 0.0, 0.0, 0)
    if idle_rate is None:
        idle_rate = max(1.0, 0.05 * float(rates.max()))
    bursts = detect_bursts(trace, bin_width=bin_width)
    burst_time = sum(b.duration for b in bursts)
    horizon = len(rates) * bin_width
    return BurstinessSummary(
        peak_rate=float(rates.max()),
        mean_rate=float(rates.mean()),
        idle_fraction=float((rates < idle_rate).mean()),
        burst_fraction=burst_time / horizon,
        n_bursts=len(bursts),
    )


def access_skew(
    trace: Trace, block: int = 4096, hot_fraction: float = 0.2
) -> Tuple[float, float]:
    """(share of accesses to the hottest blocks, Gini coefficient).

    The first value answers "what fraction of accesses hit the hottest
    ``hot_fraction`` of touched blocks" (e.g. 80/20 skew → ~0.8); the
    Gini coefficient summarises the whole popularity curve (0 = uniform,
    → 1 = fully concentrated).
    """
    if not 0 < hot_fraction <= 1:
        raise ValueError(f"hot_fraction must be in (0,1]: {hot_fraction!r}")
    counts: dict[int, int] = {}
    for r in trace:
        for blk in range(r.lba // block, (r.end + block - 1) // block):
            counts[blk] = counts.get(blk, 0) + 1
    if not counts:
        return 0.0, 0.0
    values = np.sort(np.array(list(counts.values()), dtype=np.float64))[::-1]
    total = values.sum()
    k = max(1, int(round(len(values) * hot_fraction)))
    hot_share = float(values[:k].sum() / total)
    # Gini over the ascending distribution.
    asc = values[::-1]
    n = len(asc)
    gini = float((2 * np.arange(1, n + 1) - n - 1).dot(asc) / (n * total))
    return hot_share, gini
