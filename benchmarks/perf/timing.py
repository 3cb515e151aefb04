"""Drift-filtered timing arithmetic (pure functions, no clock reads).

A run is cut into segments by stamp events; segment ``k`` does identical
work in every repeat, so a slow reading of it is the sandbox's noise,
not the program's cost.  The filtered time of a run is therefore
``sum_k min_r seg[r][k]``.  See ``README.md`` for the drift measurements
that made this the method.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence

#: stamp events per run; segment k does identical work in every repeat
K = 20
#: ``--smoke``, the stamp A/B and the traced run's discovery pass run at 1/20 size
SMOKE_SCALE = 0.05
#: a segment whose slowest repeat exceeds its fastest by this factor is noisy
NOISY_RATIO = 1.5


def stamp_times(request_times: Sequence[float], k: int) -> List[float]:
    """Simulated times of ``k`` stamp events for a sorted request schedule.

    Stamp ``j`` sits at the midpoint between the two requests either
    side of request-count quantile ``j/k``; stamp 0 is at time zero, so
    it is the first event dispatched and opens the timed region.
    """
    n = len(request_times)
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= requests, got k={k}, requests={n}")
    times = [0.0]
    for j in range(1, k):
        i = j * n // k
        times.append((request_times[i - 1] + request_times[i]) / 2.0)
    return times


def _columns(repeats: Sequence[Sequence[float]]) -> List[tuple]:
    if not repeats:
        raise ValueError("no repeats")
    width = len(repeats[0])
    if any(len(r) != width for r in repeats):
        raise ValueError(
            f"repeats disagree on segment count: {[len(r) for r in repeats]}"
        )
    return list(zip(*repeats))


def filtered_seconds(repeats: Sequence[Sequence[float]]) -> float:
    """``sum_k min_r repeats[r][k]``: the time with per-segment noise removed."""
    return sum(min(col) for col in _columns(repeats))


def noisy_share(repeats: Sequence[Sequence[float]]) -> float:
    """Share of segments whose max/min across repeats exceeds NOISY_RATIO."""
    cols = _columns(repeats)
    noisy = sum(1 for col in cols if max(col) > NOISY_RATIO * min(col))
    return noisy / len(cols)


def segment_spread(repeats: Sequence[Sequence[float]]) -> float:
    """Median over segments of ``max/min - 1`` across repeats."""
    return statistics.median(max(col) / min(col) - 1.0 for col in _columns(repeats))
