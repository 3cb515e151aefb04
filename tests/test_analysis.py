"""Tests for the workload and compressibility analyzers."""

import numpy as np
import pytest

from repro.compression.codec import default_registry
from repro.sdgen.analysis import (
    CompressibilityProfile,
    block_ratios,
    profile,
    savings_concentration,
)
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentMix, ContentStore
from repro.traces.analysis import (
    access_skew,
    burstiness_summary,
    detect_bursts,
    interarrival_stats,
)
from repro.traces.model import IORequest, Trace
from repro.traces.workloads import make_workload


def bursty_trace():
    reqs = []
    t = 0.0
    for burst in range(3):
        for _ in range(100):
            reqs.append(IORequest(t, "W", 0, 4096))
            t += 0.002  # 500/s
        t += 10.0  # idle gap
    return Trace("bursty", reqs)


def steady_trace(n=200, gap=0.1):
    return Trace("steady", [IORequest(i * gap, "W", i * 4096, 4096) for i in range(n)])


class TestInterarrival:
    def test_steady_low_cv(self):
        s = interarrival_stats(steady_trace())
        assert s.mean == pytest.approx(0.1)
        assert s.cv < 0.01

    def test_bursty_high_cv(self):
        s = interarrival_stats(bursty_trace())
        assert s.cv > 1.5
        assert s.max_gap > 100 * s.median

    def test_tiny_trace(self):
        assert interarrival_stats(Trace("t", [])).n == 0


class TestBurstDetection:
    def test_detects_three_bursts(self):
        bursts = detect_bursts(bursty_trace(), bin_width=1.0)
        assert len(bursts) == 3
        for b in bursts:
            assert b.mean_rate >= 99
            assert 0 < b.duration < 2.0

    def test_steady_trace_has_no_bursts(self):
        assert detect_bursts(steady_trace(), bin_width=1.0) == []

    def test_empty_trace(self):
        assert detect_bursts(Trace("t", [])) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            detect_bursts(steady_trace(), threshold_factor=0)


class TestBurstinessSummary:
    def test_bursty_summary(self):
        s = burstiness_summary(bursty_trace())
        assert s.peak_to_mean > 3
        assert s.idle_fraction > 0.5
        assert s.n_bursts == 3
        assert 0 < s.burst_fraction < 0.5

    def test_workload_fin1_is_bursty(self):
        t = make_workload("Fin1", duration=120.0, max_requests=None, seed=1)
        s = burstiness_summary(t)
        assert s.peak_to_mean > 5
        assert s.idle_fraction > 0.4


class TestAccessSkew:
    def test_uniform_accesses(self):
        t = Trace("u", [IORequest(i * 0.01, "W", i * 4096, 4096) for i in range(100)])
        hot_share, gini = access_skew(t, hot_fraction=0.2)
        assert hot_share == pytest.approx(0.2, abs=0.02)
        assert gini == pytest.approx(0.0, abs=0.02)

    def test_concentrated_accesses(self):
        reqs = [IORequest(i * 0.01, "W", 0, 4096) for i in range(90)]
        reqs += [IORequest(1 + i * 0.01, "W", (i + 1) * 4096, 4096) for i in range(10)]
        hot_share, gini = access_skew(Trace("c", reqs), hot_fraction=0.2)
        assert hot_share > 0.85
        assert gini > 0.5

    def test_empty(self):
        assert access_skew(Trace("t", [])) == (0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            access_skew(steady_trace(), hot_fraction=0.0)


class TestCompressibilityProfile:
    @pytest.fixture(scope="class")
    def store(self):
        return ContentStore(ENTERPRISE_MIX, pool_blocks=128, seed=11)

    def test_block_ratios_real(self, store):
        gzip = default_registry().get("gzip")
        r = block_ratios(store, gzip)
        assert r.shape == (128,)
        assert r.min() < 1.1       # incompressible tail present
        assert r.max() > 3.0       # highly compressible blocks present

    def test_profile_matches_paper_shape(self, store):
        """§I: ~31% incompressible, savings concentrated in half the chunks."""
        gzip = default_registry().get("gzip")
        p = profile(store, gzip)
        assert isinstance(p, CompressibilityProfile)
        assert 0.15 <= p.incompressible_fraction <= 0.45
        assert p.half_chunks_savings_share >= 0.6
        assert p.matches_paper_shape()

    def test_savings_concentration_bounds(self):
        assert savings_concentration([]) == 0.0
        assert savings_concentration([1.0, 1.0, 1.0]) == 0.0  # nothing saved
        assert savings_concentration([10.0, 1.0], chunk_fraction=0.5) == 1.0

    def test_savings_concentration_uniform(self):
        # Equal savings everywhere: half the chunks hold half the savings.
        assert savings_concentration([2.0] * 100, 0.5) == pytest.approx(0.5)

    def test_validation(self, store):
        gzip = default_registry().get("gzip")
        with pytest.raises(ValueError):
            savings_concentration([2.0], chunk_fraction=0.0)
        with pytest.raises(ValueError):
            profile(store, gzip, incompressible_threshold=0.0)
