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
        if self.on_iops <= 0 or self.off_iops < 0:
            raise ValueError("burst rates must be positive (off may be 0)")
        if self.on_duration_mean <= 0 or self.off_duration_mean <= 0:
            raise ValueError("period means must be positive")
        if self.on_levels is not None:
            if not self.on_levels:
                raise ValueError("on_levels must be non-empty when given")
            if any(r <= 0 for r, _ in self.on_levels):
                raise ValueError("on_levels rates must be positive")
            total = sum(p for _, p in self.on_levels)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"on_levels probabilities sum to {total}")

    @property
    def mean_on_iops(self) -> float:
        """Expected arrival rate during an ON period."""
        if self.on_levels is None:
            return self.on_iops
        return sum(r * p for r, p in self.on_levels)

    @property
    def mean_iops(self) -> float:
        """Long-run average arrival rate."""
        w_on = self.on_duration_mean
        w_off = self.off_duration_mean
        return (self.mean_on_iops * w_on + self.off_iops * w_off) / (w_on + w_off)


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

    @property
    def mean_request_bytes(self) -> float:
        return sum(s * p for s, p in self.size_dist)


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
        """Generate up to ``duration`` seconds or ``max_requests`` requests."""
        if duration is None and max_requests is None:
            raise ValueError("provide duration and/or max_requests")
        p = self.params
        rng = np.random.default_rng(self.seed)
        sizes = np.array([s for s, _ in p.size_dist])
        size_probs = np.array([pr for _, pr in p.size_dist])
        nblocks = p.address_space // p.block
        hot_blocks = max(1, int(nblocks * p.hot_fraction))

        requests: list[IORequest] = []
        t = 0.0
        on = True  # start in a burst, like Fig 3's plots
        prev_write_end: Optional[int] = None
        prev_read_end: Optional[int] = None
        levels = p.burst.on_levels
        level_rates = None
        level_probs = None
        if levels is not None:
            level_rates = np.array([r for r, _ in levels])
            level_probs = np.array([pr for _, pr in levels])
        while True:
            period_mean = p.burst.on_duration_mean if on else p.burst.off_duration_mean
            if on:
                if level_rates is not None:
                    rate = float(level_rates[rng.choice(len(level_rates), p=level_probs)])
                else:
                    rate = p.burst.on_iops
            else:
                rate = p.burst.off_iops
            # Exponential period lengths, truncated: real bursts and lulls
            # do not run unbounded, and untruncated tails dominate queueing.
            period_len = min(float(rng.exponential(period_mean)), 2.5 * period_mean)
            period_end = t + period_len
            while rate > 0:
                is_read = bool(rng.random() < p.read_ratio)
                nbytes = int(rng.choice(sizes, p=size_probs))
                if is_read:
                    seq_from = prev_read_end if rng.random() < p.read_seq_prob else None
                else:
                    seq_from = prev_write_end if rng.random() < p.write_seq_prob else None
                if seq_from is not None:
                    # Continuation of a split multi-block operation: arrives
                    # back-to-back with its predecessor.
                    t += float(rng.exponential(SEQ_ARRIVAL_GAP))
                else:
                    t += float(rng.exponential(1.0 / rate))
                if t >= period_end:
                    break
                if duration is not None and t > duration:
                    return Trace(p.name, requests)
                if seq_from is not None and seq_from + nbytes <= p.address_space:
                    lba = seq_from
                else:
                    if rng.random() < p.hot_weight:
                        blk = int(rng.integers(0, hot_blocks))
                    else:
                        blk = int(rng.integers(0, nblocks))
                    lba = blk * p.block
                    if lba + nbytes > p.address_space:
                        lba = max(0, p.address_space - nbytes)
                        lba -= lba % p.block
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
