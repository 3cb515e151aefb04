"""Synthetic block-trace generation with ON/OFF burstiness.

The paper's motivation (§II-C, Fig 3) is that real workloads alternate
bursty periods with idle periods.  The generator here produces exactly
that structure: an alternating-renewal (ON/OFF) process with
exponentially distributed period lengths, Poisson arrivals within each
period, a configurable read/write mix, an empirical request-size
distribution, tunable write sequentiality (runs of address-contiguous
writes feed the Sequentiality Detector) and a hot/cold address skew
(overwrites of hot blocks drive garbage collection).

All randomness flows from one seeded :class:`numpy.random.Generator`,
so traces are reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.traces.model import IORequest, READ, Trace, WRITE

__all__ = ["BurstModel", "WorkloadParams", "SyntheticTraceGenerator"]

#: Mean arrival gap (seconds) of a sequential continuation request.
#: Contiguous block requests come from one upper-layer operation that
#: the block layer split, so they arrive back-to-back (tens of µs), not
#: at fresh Poisson gaps.
SEQ_ARRIVAL_GAP = 40e-6


def _check_probabilities(name: str, pairs: Tuple[Tuple[float, float], ...]) -> None:
    for value, pr in pairs:
        if not 0 <= pr < math.inf:
            raise ValueError(
                f"{name} probability of {value!r} must be finite and non-negative: {pr!r}"
            )


@dataclass(frozen=True)
class BurstModel:
    """Alternating ON (burst) / OFF (idle) periods.

    Period lengths are exponential with the given means; arrival rates
    within each period are Poisson.  Each ON period's rate is drawn from
    ``on_levels`` — real workloads mix moderate bursts with occasional
    extreme ones, which is what gives an intensity-banded policy three
    distinct regimes to work with.  When ``on_levels`` is ``None`` every
    ON period runs at ``on_iops``.
    """

    on_iops: float = 500.0
    off_iops: float = 20.0
    on_duration_mean: float = 2.0
    off_duration_mean: float = 8.0
    #: optional (iops, probability) levels for ON periods
    on_levels: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        # Written as ``not lo < x < inf`` so that NaN, which fails every
        # comparison, is refused too.
        for name, value in (
            ("on_iops", self.on_iops),
            ("on_duration_mean", self.on_duration_mean),
            ("off_duration_mean", self.off_duration_mean),
        ):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite: {value!r}")
        if not 0 <= self.off_iops < math.inf:
            raise ValueError(
                f"off_iops must be non-negative and finite: {self.off_iops!r}"
            )
        if self.on_levels is not None:
            if not self.on_levels:
                raise ValueError("on_levels must be non-empty when given")
            for rate, _ in self.on_levels:
                if not 0 < rate < math.inf:
                    raise ValueError(
                        f"on_levels rate must be positive and finite: {rate!r}"
                    )
            _check_probabilities("on_levels", self.on_levels)
            total = sum(p for _, p in self.on_levels)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"on_levels probabilities sum to {total}")


@dataclass(frozen=True)
class WorkloadParams:
    """Full parameterisation of one synthetic workload (Table II row)."""

    name: str
    read_ratio: float
    #: (size_bytes, probability) pairs; sizes should be 512-aligned
    size_dist: Tuple[Tuple[int, float], ...] = ((4096, 1.0),)
    #: probability that a write continues the preceding write's run
    write_seq_prob: float = 0.3
    #: probability that a read continues the preceding read address
    read_seq_prob: float = 0.2
    burst: BurstModel = field(default_factory=BurstModel)
    #: addressable bytes (folded onto the device by the harness)
    address_space: int = 1 << 30
    #: fraction of the address space that is hot
    hot_fraction: float = 0.2
    #: fraction of random accesses that go to the hot region
    hot_weight: float = 0.8
    block: int = 4096

    def __post_init__(self) -> None:
        if not 0 <= self.read_ratio <= 1:
            raise ValueError(f"read_ratio must be in [0,1]: {self.read_ratio!r}")
        _check_probabilities("size_dist", self.size_dist)
        total = sum(p for _, p in self.size_dist)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"size distribution sums to {total}, expected 1.0")
        if any(s <= 0 for s, _ in self.size_dist):
            raise ValueError("request sizes must be positive")
        if not 0 <= self.write_seq_prob <= 1 or not 0 <= self.read_seq_prob <= 1:
            raise ValueError("sequentiality probabilities must be in [0,1]")
        if not 0 < self.hot_fraction <= 1 or not 0 <= self.hot_weight <= 1:
            raise ValueError("hot-region parameters out of range")
        if self.address_space < self.block:
            raise ValueError("address space smaller than one block")


class SyntheticTraceGenerator:
    """Generates reproducible traces from :class:`WorkloadParams`."""

    def __init__(self, params: WorkloadParams, seed: int = 0) -> None:
        self.params = params
        self.seed = seed

    def generate(
        self,
        duration: Optional[float] = None,
        max_requests: Optional[int] = None,
    ) -> Trace:
        """Generate up to ``duration`` seconds or ``max_requests`` requests.

        Each categorical draw (a request size, an ON level) consumes one
        ``random()`` and bisects the cdf ``Generator.choice`` would build,
        so the stream and every value are those of ``rng.choice(values,
        p=probs)`` for the cost of one scalar draw.
        """
        if duration is None and max_requests is None:
            raise ValueError("provide duration and/or max_requests")
        p = self.params
        rng = np.random.default_rng(self.seed)
        random, exponential, integers = rng.random, rng.exponential, rng.integers
        sizes, size_cdf = _categorical(p.size_dist)
        nblocks = p.address_space // p.block
        hot_blocks = max(1, int(nblocks * p.hot_fraction))
        read_ratio, read_seq_prob, write_seq_prob = p.read_ratio, p.read_seq_prob, p.write_seq_prob
        hot_weight, address_space, block = p.hot_weight, p.address_space, p.block

        requests: list[IORequest] = []
        t = 0.0
        on = True  # start in a burst, like Fig 3's plots
        prev_write_end: Optional[int] = None
        prev_read_end: Optional[int] = None
        levels = p.burst.on_levels
        if levels is not None:
            level_rates, level_cdf = _categorical(levels)
        while True:
            period_mean = p.burst.on_duration_mean if on else p.burst.off_duration_mean
            if on:
                if levels is not None:
                    rate = float(level_rates[bisect_right(level_cdf, random())])
                else:
                    rate = p.burst.on_iops
            else:
                rate = p.burst.off_iops
            # Exponential period lengths, truncated: real bursts and lulls
            # do not run unbounded, and untruncated tails dominate queueing.
            period_len = min(float(exponential(period_mean)), 2.5 * period_mean)
            period_end = t + period_len
            while rate > 0:
                is_read = bool(random() < read_ratio)
                nbytes = int(sizes[bisect_right(size_cdf, random())])
                if is_read:
                    seq_from = prev_read_end if random() < read_seq_prob else None
                else:
                    seq_from = prev_write_end if random() < write_seq_prob else None
                if seq_from is not None:
                    # Continuation of a split multi-block operation: arrives
                    # back-to-back with its predecessor.
                    t += float(exponential(SEQ_ARRIVAL_GAP))
                else:
                    t += float(exponential(1.0 / rate))
                if t >= period_end:
                    break
                if duration is not None and t > duration:
                    return Trace(p.name, requests)
                if seq_from is not None and seq_from + nbytes <= address_space:
                    lba = seq_from
                else:
                    if random() < hot_weight:
                        blk = int(integers(0, hot_blocks))
                    else:
                        blk = int(integers(0, nblocks))
                    lba = blk * block
                    if lba + nbytes > address_space:
                        lba = max(0, address_space - nbytes)
                        lba -= lba % block
                requests.append(
                    IORequest(t, READ if is_read else WRITE, lba, nbytes)
                )
                if is_read:
                    prev_read_end = lba + nbytes
                else:
                    prev_write_end = lba + nbytes
                if max_requests is not None and len(requests) >= max_requests:
                    return Trace(p.name, requests)
            t = period_end
            on = not on
            if duration is not None and t > duration:
                return Trace(p.name, requests)


def _categorical(pairs: Tuple[Tuple[float, float], ...]) -> Tuple[list, list]:
    """``(values, cdf)`` of ``(value, probability)`` pairs, as lists.

    The cdf is the one ``Generator.choice`` builds: a float64 cumulative
    sum divided by its last entry.  ``values[bisect_right(cdf, u)]``
    picks what ``choice``'s ``searchsorted(u, side='right')`` picks for
    the same uniform ``u``.  Draw ``u`` for a one-entry table too, as
    ``choice`` does: skipping it would shift every later draw.
    """
    cdf = np.array([pr for _, pr in pairs], dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return [v for v, _ in pairs], cdf.tolist()
