"""Tests for latency recorders and time series."""

import numpy as np
import pytest

from repro.sim.metrics import LatencyRecorder, TimeSeries


class TestLatencyRecorder:
    def test_empty_stats_are_zero(self):
        r = LatencyRecorder()
        assert r.count == 0
        assert r.mean() == 0.0
        assert r.max() == 0.0
        assert r.total() == 0.0

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError, match="empty recorder"):
            LatencyRecorder().percentile(99)

    def test_nan_sample_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            LatencyRecorder().add(float("nan"))

    def test_mean(self):
        r = LatencyRecorder()
        r.extend([1.0, 2.0, 3.0])
        assert r.mean() == pytest.approx(2.0)

    def test_percentiles(self):
        r = LatencyRecorder()
        r.extend(float(i) for i in range(1, 101))
        assert r.percentile(50) == pytest.approx(50.5)
        assert r.percentile(0) == 1.0
        assert r.percentile(100) == 100.0

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            LatencyRecorder().percentile(101)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().add(-1.0)

    def test_min_max_total(self):
        r = LatencyRecorder()
        r.extend([0.5, 2.5, 1.0])
        assert r.min() == 0.5
        assert r.max() == 2.5
        assert r.total() == pytest.approx(4.0)

    def test_merge(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        a.add(1.0)
        b.add(3.0)
        a.merge(b)
        assert a.count == 2
        assert a.mean() == pytest.approx(2.0)

    def test_samples_returns_copy_as_array(self):
        r = LatencyRecorder()
        r.extend([1.0, 2.0])
        s = r.samples()
        assert isinstance(s, np.ndarray)
        s[0] = 99.0
        assert r.mean() == pytest.approx(1.5)


class TestTimeSeries:
    def test_empty(self):
        ts = TimeSeries()
        assert ts.empty
        edges, sums = ts.bins()
        assert len(edges) == 0

    def test_binning(self):
        ts = TimeSeries(bin_width=1.0)
        ts.add(0.2, 1.0)
        ts.add(0.9, 2.0)
        ts.add(2.5, 5.0)
        edges, sums = ts.bins()
        assert list(edges) == [0.0, 1.0, 2.0]
        assert list(sums) == [3.0, 0.0, 5.0]

    def test_rates_divide_by_width(self):
        ts = TimeSeries(bin_width=0.5)
        ts.add(0.1, 3.0)
        _, rates = ts.rates()
        assert rates[0] == pytest.approx(6.0)

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            TimeSeries(bin_width=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries().add(-1.0)


class TestApproxPercentiles:
    def test_small_n_is_exact(self):
        r = LatencyRecorder(approx_threshold=100)
        samples = np.arange(1, 101) / 1000.0
        for v in samples:
            r.add(float(v))
        assert not r.uses_approx
        assert r.percentile(50) == pytest.approx(
            float(np.percentile(samples, 50)), rel=0, abs=0
        )

    def test_large_n_routes_through_histogram(self):
        r = LatencyRecorder(approx_threshold=64)
        rng = np.random.default_rng(1)
        samples = rng.lognormal(mean=-7.0, sigma=1.0, size=2000)
        for v in samples:
            r.add(float(v))
        assert r.uses_approx
        exact = float(np.percentile(samples, 95))
        # log2 x 32 sub-buckets: relative quantile error <= 1/32
        assert r.percentile(95) == pytest.approx(exact, rel=0.05)

    def test_mean_stays_exact_above_threshold(self):
        r = LatencyRecorder(approx_threshold=10)
        samples = [0.001 * (i + 1) for i in range(50)]
        for v in samples:
            r.add(v)
        assert r.uses_approx
        assert r.mean() == pytest.approx(sum(samples) / len(samples))
        assert r.total() == pytest.approx(sum(samples))

    def test_threshold_none_always_exact(self):
        r = LatencyRecorder(approx_threshold=None)
        for v in range(1, 10001):
            r.add(v / 1e6)
        assert not r.uses_approx

    def test_merge_merges_histograms(self):
        a = LatencyRecorder(approx_threshold=10)
        b = LatencyRecorder(approx_threshold=10)
        for v in range(1, 21):
            a.add(v / 1000.0)
            b.add(v / 100.0)
        a.merge(b)
        assert a.count == 40
        assert a.uses_approx
        assert a.max() == pytest.approx(0.2, rel=0.05)

    def test_lazy_fold_equals_eager_histogram(self):
        """Folding at query time (percentile, min, max, merge) leaves the
        histogram an eagerly fed one would hold, bucket for bucket."""
        from repro.telemetry.histograms import Log2Histogram

        rng = np.random.default_rng(7)
        a = LatencyRecorder(approx_threshold=16)
        b = LatencyRecorder(approx_threshold=16)
        eager = Log2Histogram(sub_buckets=32)
        b_eager = Log2Histogram(sub_buckets=32)
        for step, v in enumerate(rng.lognormal(-7.0, 1.5, size=600)):
            rec, hist = (a, eager) if step % 3 else (b, b_eager)
            rec.add(float(v))
            hist.add(float(v))
            if step % 37 == 0 and a.count:
                a.percentile(95)
            if step % 53 == 0 and b.count:
                b.max()
            if step == 400:
                a.merge(b)  # both recorders partly folded here
                eager.merge(b_eager)
        for rec, hist in ((a, eager), (b, b_eager)):
            assert rec.min() == hist.min() and rec.max() == hist.max()
            folded = rec._histogram()
            assert folded._counts == hist._counts
            assert folded._zero == hist._zero
            assert (folded.count, folded.sum) == (hist.count, hist.sum)
            for q in (50, 95, 99):
                assert rec.percentile(q) == hist.percentile(q)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            LatencyRecorder(approx_threshold=0)
