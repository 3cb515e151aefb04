"""The synthetic trace generator as it stood before its categorical
draws were bisected, kept as the test oracle.

This is ``SyntheticTraceGenerator.generate`` from
``repro.traces.synthetic`` from when every request size and every ON
level was drawn with ``Generator.choice``, moved here verbatim apart
from the imports.  It defines the requests, and through them the random
stream, that the production generator, which draws one ``random()`` per
categorical and bisects numpy's own cdf, must reproduce;
``tests/test_synthetic_differential.py`` compares the two.  Do not
optimise this file.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.traces.model import IORequest, READ, Trace, WRITE
from repro.traces.synthetic import SEQ_ARRIVAL_GAP, WorkloadParams

__all__ = ["SyntheticTraceGenerator"]


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
