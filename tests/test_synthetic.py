"""Tests for the synthetic ON/OFF burst trace generator."""

import numpy as np
import pytest

from repro.traces.synthetic import (
    SEQ_ARRIVAL_GAP,
    BurstModel,
    SyntheticTraceGenerator,
    WorkloadParams,
)


def params(**kw):
    defaults = dict(
        name="test",
        read_ratio=0.3,
        size_dist=((4096, 0.7), (8192, 0.3)),
        burst=BurstModel(
            on_iops=500.0, off_iops=10.0, on_duration_mean=1.0, off_duration_mean=4.0
        ),
        address_space=1 << 24,
    )
    defaults.update(kw)
    return WorkloadParams(**defaults)


def long_run_iops(burst, duration=400.0):
    """Arrival rate of a generated trace without sequential runs, whose
    back-to-back continuations would outpace the burst model."""
    p = params(write_seq_prob=0.0, read_seq_prob=0.0, burst=burst)
    return len(SyntheticTraceGenerator(p).generate(duration=duration)) / duration


class TestBurstModel:
    def test_mean_iops(self):
        """The long-run rate weights ON and OFF rates by period length."""
        b = BurstModel(on_iops=100, off_iops=0, on_duration_mean=1, off_duration_mean=1)
        assert long_run_iops(b) == pytest.approx(50.0, rel=0.15)

    def test_on_levels_mean(self):
        """ON periods run, on average, at the mean of their levels."""
        b = BurstModel(on_levels=((100.0, 0.5), (300.0, 0.5)), off_iops=0,
                       on_duration_mean=1, off_duration_mean=1)
        assert long_run_iops(b) == pytest.approx(200.0 / 2, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstModel(on_iops=0)
        with pytest.raises(ValueError):
            BurstModel(on_duration_mean=0)
        with pytest.raises(ValueError):
            BurstModel(on_levels=((100.0, 0.5), (200.0, 0.4)))  # probs != 1
        with pytest.raises(ValueError):
            BurstModel(on_levels=((0.0, 1.0),))
        with pytest.raises(ValueError):
            BurstModel(on_levels=())
        with pytest.raises(ValueError, match="on_levels"):
            BurstModel(on_levels=((100.0, 1.5), (200.0, -0.5)))  # sums to 1
        with pytest.raises(ValueError, match="on_levels"):
            BurstModel(on_levels=((100.0, float("nan")), (200.0, 1.0)))
        with pytest.raises(ValueError, match="on_iops"):
            BurstModel(on_iops=float("inf"))
        with pytest.raises(ValueError, match="off_iops"):
            BurstModel(off_iops=float("nan"))
        with pytest.raises(ValueError, match="off_iops"):
            BurstModel(off_iops=float("inf"))
        with pytest.raises(ValueError, match="on_duration_mean"):
            BurstModel(on_duration_mean=float("nan"))
        with pytest.raises(ValueError, match="on_duration_mean"):
            BurstModel(on_duration_mean=float("inf"))
        with pytest.raises(ValueError, match="off_duration_mean"):
            BurstModel(off_duration_mean=float("nan"))
        with pytest.raises(ValueError, match="off_duration_mean"):
            BurstModel(off_duration_mean=float("inf"))
        with pytest.raises(ValueError, match="on_levels"):
            BurstModel(on_levels=((float("inf"), 0.5), (200.0, 0.5)))


class TestWorkloadParams:
    def test_mean_request_bytes(self):
        trace = SyntheticTraceGenerator(params()).generate(max_requests=5000)
        assert trace.stats().avg_request_bytes == pytest.approx(
            4096 * 0.7 + 8192 * 0.3, rel=0.02
        )

    @pytest.mark.parametrize(
        "kw",
        [
            dict(read_ratio=1.5),
            dict(size_dist=((4096, 0.5),)),
            dict(size_dist=((0, 1.0),)),
            dict(size_dist=((4096, 1.5), (8192, -0.5))),  # sums to 1
            dict(size_dist=((4096, float("nan")),)),
            dict(write_seq_prob=-0.1),
            dict(hot_fraction=0.0),
            dict(hot_weight=1.5),
            dict(address_space=100),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            params(**kw)


class TestGeneration:
    def test_requires_bound(self):
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(params()).generate()

    def test_deterministic_per_seed(self):
        a = SyntheticTraceGenerator(params(), seed=1).generate(max_requests=500)
        b = SyntheticTraceGenerator(params(), seed=1).generate(max_requests=500)
        assert [(r.time, r.op, r.lba, r.nbytes) for r in a] == [
            (r.time, r.op, r.lba, r.nbytes) for r in b
        ]

    def test_different_seeds_differ(self):
        a = SyntheticTraceGenerator(params(), seed=1).generate(max_requests=200)
        b = SyntheticTraceGenerator(params(), seed=2).generate(max_requests=200)
        assert [r.lba for r in a] != [r.lba for r in b]

    def test_max_requests_respected(self):
        t = SyntheticTraceGenerator(params()).generate(max_requests=123)
        assert len(t) == 123

    def test_duration_respected(self):
        t = SyntheticTraceGenerator(params()).generate(duration=10.0)
        assert t.duration <= 10.0

    def test_timestamps_non_decreasing(self):
        t = SyntheticTraceGenerator(params()).generate(max_requests=1000)
        times = [r.time for r in t]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_read_ratio_approximated(self):
        t = SyntheticTraceGenerator(params(read_ratio=0.3), seed=0).generate(
            max_requests=4000
        )
        assert t.stats().read_ratio == pytest.approx(0.3, abs=0.05)

    def test_sizes_from_distribution(self):
        t = SyntheticTraceGenerator(params()).generate(max_requests=1000)
        assert {r.nbytes for r in t} <= {4096, 8192}

    def test_addresses_within_space(self):
        p = params()
        t = SyntheticTraceGenerator(p).generate(max_requests=2000)
        assert all(0 <= r.lba and r.end <= p.address_space for r in t)

    def test_addresses_block_aligned_for_random_accesses(self):
        p = params(write_seq_prob=0.0, read_seq_prob=0.0)
        t = SyntheticTraceGenerator(p).generate(max_requests=500)
        assert all(r.lba % p.block == 0 for r in t)

    def test_burstiness_visible(self):
        """ON/OFF structure produces high-variance per-second rates (Fig 3)."""
        p = params(
            burst=BurstModel(
                on_iops=500.0, off_iops=2.0, on_duration_mean=1.0, off_duration_mean=8.0
            )
        )
        t = SyntheticTraceGenerator(p, seed=3).generate(duration=60.0)
        _, rates = t.intensity_series(bin_width=1.0)
        assert rates.max() > 5 * max(rates.mean(), 1e-9)

    def test_sequential_continuations_cluster_in_time(self):
        p = params(write_seq_prob=0.9, read_seq_prob=0.0, read_ratio=0.0)
        t = SyntheticTraceGenerator(p, seed=5).generate(max_requests=2000)
        gaps = []
        for prev, cur in zip(t, list(t)[1:]):
            if cur.lba == prev.end:
                gaps.append(cur.time - prev.time)
        assert gaps, "expected sequential continuations"
        assert np.median(gaps) < 5 * SEQ_ARRIVAL_GAP

    def test_hot_region_receives_more_traffic(self):
        p = params(hot_fraction=0.1, hot_weight=0.9, write_seq_prob=0.0, read_seq_prob=0.0)
        t = SyntheticTraceGenerator(p, seed=4).generate(max_requests=3000)
        hot_limit = int((1 << 24) * 0.1)
        hot = sum(1 for r in t if r.lba < hot_limit)
        assert hot / len(t) > 0.7

    def test_two_level_bursts_visible(self):
        p = params(
            burst=BurstModel(
                on_iops=500.0,
                off_iops=2.0,
                on_duration_mean=1.0,
                off_duration_mean=2.0,
                on_levels=((200.0, 0.5), (2000.0, 0.5)),
            )
        )
        t = SyntheticTraceGenerator(p, seed=11).generate(duration=120.0)
        _, rates = t.intensity_series(bin_width=0.5)
        busy = rates[rates > 50]
        assert busy.max() > 4 * np.median(busy)
