"""Tests for the IORequest/Trace model and trace statistics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.traces.model import IORequest, READ, Trace, WRITE


def w(t, lba, n=4096):
    return IORequest(t, WRITE, lba, n)


def r(t, lba, n=4096):
    return IORequest(t, READ, lba, n)


class TestIORequest:
    def test_properties(self):
        req = w(1.0, 4096, 8192)
        assert req.is_write and not req.is_read
        assert req.end == 4096 + 8192

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(time=-1.0, op="R", lba=0, nbytes=1),
            dict(time=0.0, op="X", lba=0, nbytes=1),
            dict(time=0.0, op="R", lba=-1, nbytes=1),
            dict(time=0.0, op="R", lba=0, nbytes=0),
            dict(time=float("nan"), op="R", lba=0, nbytes=1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IORequest(**kwargs)


class TestTrace:
    def test_iteration_and_indexing(self):
        t = Trace("t", [w(0.0, 0), r(1.0, 4096)])
        assert len(t) == 2
        assert t[1].is_read
        assert [x.time for x in t] == [0.0, 1.0]

    def test_unsorted_input_gets_sorted(self):
        t = Trace("t", [w(2.0, 0), w(1.0, 0)])
        assert [x.time for x in t] == [1.0, 2.0]

    def test_duration(self):
        assert Trace("t", [w(0.5, 0), w(3.5, 0)]).duration == 3.5
        assert Trace("t", []).duration == 0.0

    def test_head(self):
        t = Trace("t", [w(float(i), 0) for i in range(10)])
        assert len(t.head(3)) == 3


class TestScaledAddresses:
    def test_folding_wraps_addresses(self):
        t = Trace("t", [w(0.0, 100 * 4096)])
        folded = t.scaled_addresses(10 * 4096)
        assert folded[0].lba == (100 % 10) * 4096

    def test_preserves_block_alignment(self):
        t = Trace("t", [w(0.0, 77 * 4096)])
        folded = t.scaled_addresses(8 * 4096)
        assert folded[0].lba % 4096 == 0

    def test_same_block_folds_to_same_block(self):
        """Overwrite structure (what drives GC) survives folding."""
        t = Trace("t", [w(0.0, 50 * 4096), w(1.0, 50 * 4096)])
        folded = t.scaled_addresses(16 * 4096)
        assert folded[0].lba == folded[1].lba

    def test_size_clamped_at_boundary(self):
        t = Trace("t", [w(0.0, 7 * 4096, 8 * 4096)])
        folded = t.scaled_addresses(8 * 4096)
        assert folded[0].end <= 8 * 4096

    def test_invalid_args(self):
        t = Trace("t", [w(0.0, 0)])
        with pytest.raises(ValueError):
            t.scaled_addresses(1000)  # not block multiple
        with pytest.raises(ValueError):
            t.scaled_addresses(0)


class TestStats:
    def test_empty_trace(self):
        s = Trace("t", []).stats()
        assert s.n_requests == 0
        assert s.raw_iops == 0.0

    def test_read_write_split(self):
        t = Trace("t", [w(0.0, 0), w(1.0, 0), r(2.0, 0), w(3.0, 0)])
        s = t.stats()
        assert s.reads == 1 and s.writes == 3
        assert s.read_ratio == pytest.approx(0.25)
        assert s.write_ratio == pytest.approx(0.75)

    def test_avg_sizes(self):
        t = Trace("t", [w(0.0, 0, 4096), r(1.0, 0, 8192)])
        s = t.stats()
        assert s.avg_request_bytes == pytest.approx(6144)
        assert s.avg_write_bytes == pytest.approx(4096)
        assert s.avg_read_bytes == pytest.approx(8192)

    def test_raw_iops(self):
        t = Trace("t", [w(float(i) / 10, 0) for i in range(101)])
        assert t.stats().raw_iops == pytest.approx(10.1)

    def test_footprint_counts_distinct_blocks(self):
        t = Trace("t", [w(0.0, 0), w(1.0, 0), w(2.0, 4096, 8192)])
        assert t.stats().footprint_blocks == 3  # blocks 0, 1, 2

    def test_sequential_fraction(self):
        t = Trace("t", [w(0.0, 0), w(1.0, 4096), w(2.0, 100 * 4096), w(3.0, 101 * 4096)])
        assert t.stats().sequential_fraction == pytest.approx(0.5)


class TestIntensitySeries:
    def test_pages_normalisation(self):
        """An 8 KB request counts as two 4 KB requests (§III-D)."""
        t = Trace("t", [w(0.1, 0, 8192), w(0.2, 0, 4096)])
        _, rates = t.intensity_series(bin_width=1.0)
        assert rates[0] == pytest.approx(3.0)

    def test_small_request_counts_one_page(self):
        t = Trace("t", [w(0.1, 0, 512)])
        _, rates = t.intensity_series(bin_width=1.0)
        assert rates[0] == pytest.approx(1.0)


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.sampled_from([READ, WRITE]),
                st.integers(min_value=0, max_value=1000) ,
                st.integers(min_value=1, max_value=65536),
            ),
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_stats_consistency(self, rows):
        t = Trace("t", [IORequest(a, o, lba * 4096, n) for a, o, lba, n in rows])
        s = t.stats()
        assert s.reads + s.writes == s.n_requests == len(rows)
        if rows:
            assert 0 <= s.read_ratio <= 1
            assert s.sequential_fraction <= 1
