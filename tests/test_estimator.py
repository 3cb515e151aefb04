"""Tests for compressibility estimation (the write-through gate)."""

import os
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.estimator import (
    EstimatorStats,
    SampledEstimator,
    byte_entropy,
    coreset_size,
)


class TestByteEntropy:
    def test_empty_is_zero(self):
        assert byte_entropy(b"") == 0.0

    def test_constant_is_zero(self):
        assert byte_entropy(b"\x00" * 1000) == 0.0

    def test_two_symbols_is_one_bit(self):
        assert byte_entropy(b"ab" * 500) == pytest.approx(1.0)

    def test_uniform_bytes_is_eight_bits(self):
        data = bytes(range(256)) * 16
        assert byte_entropy(data) == pytest.approx(8.0)

    def test_random_data_near_eight(self):
        assert byte_entropy(os.urandom(65536)) > 7.9

    def test_text_well_below_eight(self):
        text = open(__file__, "rb").read()
        assert byte_entropy(text) < 6.0


class TestCoresetSize:
    def test_empty(self):
        assert coreset_size(b"") == 0

    def test_constant_data(self):
        assert coreset_size(b"a" * 100) == 1

    def test_random_data_needs_many_symbols(self):
        assert coreset_size(os.urandom(65536)) > 200

    def test_coverage_bounds(self):
        with pytest.raises(ValueError):
            coreset_size(b"abc", coverage=0.0)
        with pytest.raises(ValueError):
            coreset_size(b"abc", coverage=1.5)

    def test_skewed_distribution_has_small_core(self):
        data = b"a" * 950 + bytes(range(50))
        assert coreset_size(data, coverage=0.9) <= 2


class TestSampledEstimator:
    def test_zeros_compressible(self):
        assert SampledEstimator().is_compressible(bytes(4096))

    def test_random_incompressible(self):
        assert not SampledEstimator().is_compressible(os.urandom(4096))

    def test_compressed_data_incompressible(self):
        data = zlib.compress(open(__file__, "rb").read() * 4)[:4096]
        assert not SampledEstimator().is_compressible(data)

    def test_text_compressible(self):
        text = (open(__file__, "rb").read() * 4)[:4096]
        assert SampledEstimator().is_compressible(text)

    def test_empty_not_compressible(self):
        assert not SampledEstimator().is_compressible(b"")

    def test_stats_accumulate(self):
        est = SampledEstimator()
        est.is_compressible(bytes(4096))
        est.is_compressible(os.urandom(4096))
        assert est.stats.total == 2
        assert est.stats.by_coreset >= 1
        assert est.stats.by_entropy >= 1

    def test_estimate_fraction_low_for_zeros(self):
        assert SampledEstimator().estimate_compressed_fraction(bytes(4096)) < 0.1

    def test_estimate_fraction_high_for_random(self):
        assert SampledEstimator().estimate_compressed_fraction(os.urandom(4096)) > 0.9

    def test_estimate_fraction_empty(self):
        assert SampledEstimator().estimate_compressed_fraction(b"") == 1.0

    def test_sample_spans_block(self):
        # Data compressible at the front, random at the back: a front-only
        # sample would be fooled; spread sampling should not be.
        data = bytes(3072) + os.urandom(1024)
        est = SampledEstimator()
        frac = est.estimate_compressed_fraction(data)
        assert 0.05 < frac < 0.9  # sees both regions


class TestPropertyBased:
    @given(st.binary(min_size=1, max_size=4096))
    @settings(max_examples=100, deadline=None)
    def test_entropy_bounds(self, data):
        assert 0.0 <= byte_entropy(data) <= 8.0

    @given(st.binary(min_size=1, max_size=4096))
    @settings(max_examples=100, deadline=None)
    def test_coreset_bounds(self, data):
        c = coreset_size(data)
        assert 1 <= c <= 256

    @given(st.binary(min_size=64, max_size=4096))
    @settings(max_examples=50, deadline=None)
    def test_is_compressible_never_crashes(self, data):
        SampledEstimator().is_compressible(data)
