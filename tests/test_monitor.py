"""Tests for the Workload Monitor (calculated IOPS, §III-D)."""

import pytest

from repro.core.monitor import WorkloadMonitor


class TestPagesOf:
    def test_paper_example_8k_is_two(self):
        """§III-D: 'one 8KB request is traded as two 4KB requests'."""
        assert WorkloadMonitor().pages_of(8192) == 2

    @pytest.mark.parametrize(
        "nbytes,pages",
        [(1, 1), (512, 1), (4096, 1), (4097, 2), (16384, 4), (65536, 16)],
    )
    def test_rounding_up(self, nbytes, pages):
        assert WorkloadMonitor().pages_of(nbytes) == pages

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            WorkloadMonitor().pages_of(0)


class TestCalculatedIops:
    def test_counts_pages_not_requests(self):
        m = WorkloadMonitor(window=1.0)
        m.record(0.1, "W", 8192)
        m.record(0.2, "W", 4096)
        assert m.calculated_iops(0.2) == pytest.approx(3.0)
        assert m.raw_iops(0.2) == pytest.approx(2.0)

    def test_window_expiry(self):
        m = WorkloadMonitor(window=1.0)
        m.record(0.0, "W", 4096)
        m.record(2.0, "W", 4096)
        assert m.calculated_iops(2.0) == pytest.approx(1.0)

    def test_reads_and_writes_both_counted(self):
        m = WorkloadMonitor(window=1.0)
        m.record(0.1, "R", 4096)
        m.record(0.2, "W", 4096)
        assert m.calculated_iops(0.2) == pytest.approx(2.0)

    def test_short_window_reacts_fast(self):
        slow = WorkloadMonitor(window=1.0)
        fast = WorkloadMonitor(window=0.05)
        for i in range(10):
            t = i * 0.005
            slow.record(t, "W", 4096)
            fast.record(t, "W", 4096)
        assert fast.calculated_iops(0.045) > slow.calculated_iops(0.045)

    def test_totals(self):
        m = WorkloadMonitor()
        m.record(0.0, "W", 8192)
        m.record(0.1, "R", 4096)
        assert m.total_requests == 2
        assert m.total_pages == 3


class TestSnapshot:
    def test_snapshot_fields(self):
        m = WorkloadMonitor(window=1.0)
        m.record(0.1, "R", 4096)
        m.record(0.2, "W", 4096)
        m.record(0.3, "R", 8192)
        s = m.snapshot(0.3)
        assert s.time == 0.3
        assert s.calculated_iops == pytest.approx(4.0)
        assert s.raw_iops == pytest.approx(3.0)
        assert s.read_fraction == pytest.approx(2 / 3)

    def test_snapshot_idle(self):
        m = WorkloadMonitor(window=1.0)
        m.record(0.0, "W", 4096)
        s = m.snapshot(5.0)
        assert s.calculated_iops == 0.0
        assert s.read_fraction == 0.0

    def test_snapshot_window_occupancy(self):
        m = WorkloadMonitor(window=1.0, page_size=4096)
        m.record(0.1, "W", 4096)
        m.record(0.2, "W", 8192)
        s = m.snapshot(0.2)
        assert s.window_requests == 2
        assert s.window_pages == pytest.approx(3.0)
        # events sliding out of the window leave the occupancy
        s2 = m.snapshot(1.5)
        assert s2.window_requests == 0
        assert s2.window_pages == 0.0

    def test_snapshot_band_index_without_policy(self):
        m = WorkloadMonitor(window=1.0)
        m.record(0.1, "W", 4096)
        assert m.snapshot(0.1).band_index is None

    def test_snapshot_band_index_with_policy(self):
        from repro.core.policy import ElasticPolicy, NativePolicy

        m = WorkloadMonitor(window=1.0)
        policy = ElasticPolicy()
        s = m.snapshot(0.0, policy=policy)
        assert s.band_index == policy.band_index(s.calculated_iops)
        # a heavy burst lands in a higher band
        for i in range(2000):
            m.record(0.5 + i * 1e-4, "W", 4096)
        s2 = m.snapshot(0.7, policy=policy)
        assert s2.band_index is not None
        assert s2.band_index > s.band_index
        # the pure query must not perturb the policy's own counters
        assert policy.band_counts == [0] * len(policy.bands)
        # policies without a band ladder yield None
        assert m.snapshot(0.7, policy=NativePolicy()).band_index is None

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadMonitor(page_size=0)


class TestClampAndReset:
    def test_stale_timestamp_clamped_to_watermark(self):
        # Completion callbacks can observe a clock slightly behind the
        # last arrival; the sample is clamped forward, not rejected.
        m = WorkloadMonitor(window=10.0)
        m.record(1.0, "W", 4096)
        m.record(0.5, "R", 4096)
        assert m.raw_iops(1.0) == pytest.approx(2 / 10.0)
        s = m.snapshot(1.0)
        assert s.read_fraction == pytest.approx(0.5)

    def test_stale_query_time_clamped(self):
        m = WorkloadMonitor(window=1.0)
        m.record(2.0, "W", 4096)
        # querying at a time before the watermark acts like "now"
        assert m.calculated_iops(1.0) == m.calculated_iops(2.0)

    def test_reset_returns_to_fresh_state(self):
        m = WorkloadMonitor(window=1.0)
        m.record(5.0, "W", 8192)
        m.record(5.5, "R", 4096)
        m.reset()
        assert m.raw_iops(6.0) == 0.0
        assert m.total_requests == 0
        assert m.total_pages == 0
        # the watermark is cleared too: early timestamps valid again
        m.record(0.1, "W", 4096)
        assert m.raw_iops(0.1) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_record_refused(self, bad):
        # Accepted, a NaN sat at the head of the window so nothing behind
        # it expired (the 1 s window at 20 held four requests, not one),
        # and a +inf clamped every later record to inf (the window read
        # no request at all).
        m = WorkloadMonitor(window=1.0)
        m.record(0.0, "W", 4096)
        with pytest.raises(ValueError, match=f"finite: {bad!r}"):
            m.record(bad, "W", 4096)
        for t in (5.0, 10.0, 20.0):
            m.record(t, "W", 4096)
        assert m.calculated_iops(20.0) == 1.0
        assert m.total_requests == 4

    def test_record_behind_a_later_query_still_expires(self):
        # A query may prune the window further than the records have
        # reached; a record behind it must still leave with that cutoff.
        m = WorkloadMonitor(window=1.0)
        m.record(0.0, "W", 4096)
        assert m.calculated_iops(20.0) == 0.0
        m.record(10.0, "W", 4096)
        assert m.calculated_iops(20.0) == 0.0
        assert m.calculated_iops(10.5) == 0.0

    def test_expiry_is_single_pass(self):
        # many records, then one query far in the future: the window is
        # drained incrementally and sums return to exact zero
        m = WorkloadMonitor(window=1.0)
        for i in range(1000):
            m.record(i * 0.001, "W", 4096)
        assert m.calculated_iops(100.0) == 0.0
        assert m.raw_iops(100.0) == 0.0
        assert m.total_requests == 1000
