"""Tests for the Sequentiality Detector, including the paper's Fig 7 example."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sequential import (
    MAX_MERGE_BLOCKS, PendingRun, SequentialityDetector,
)

BS = 4096
LIMIT = MAX_MERGE_BLOCKS


def sd():
    return SequentialityDetector(block_size=BS)


class TestFig7WorkedExample:
    """The exact flow of paper Fig 7(b).

    Order: write A1, A2, A3 (contiguous), B1, B2 (contiguous), C1, D1.
    SD actions: wait; merge; merge; compress A1-3; merge B; compress B1-2;
    compress C1.  D1 remains pending at the end.
    """

    def test_flow(self):
        d = sd()
        a1, a2, a3 = 0, BS, 2 * BS
        b1, b2 = 10 * BS, 11 * BS
        c1 = 20 * BS
        d1 = 30 * BS

        assert d.on_write(a1, BS, 1.0) == []          # 1: wait
        assert d.on_write(a2, BS, 2.0) == []          # 2: merge A1&A2
        assert d.on_write(a3, BS, 3.0) == []          # 3: merge A1-2&A3
        flushed = d.on_write(b1, BS, 4.0)             # 4: compress A1-3
        assert len(flushed) == 1
        assert flushed[0].start_lba == a1
        assert flushed[0].nbytes == 3 * BS
        assert flushed[0].n_merged == 3
        assert d.on_write(b2, BS, 5.0) == []          # 5: merge B1&B2
        flushed = d.on_write(c1, BS, 6.0)             # 6: compress B1-2
        assert flushed[0].start_lba == b1
        assert flushed[0].nbytes == 2 * BS
        flushed = d.on_write(d1, BS, 7.0)             # 7: compress C1
        assert flushed[0].start_lba == c1
        assert flushed[0].nbytes == BS
        assert d.pending is not None and d.pending.start_lba == d1

    def test_stats_after_fig7(self):
        d = sd()
        for i, lba in enumerate([0, BS, 2 * BS, 10 * BS, 11 * BS, 20 * BS, 30 * BS]):
            d.on_write(lba, BS, float(i))
        assert d.stats.writes_seen == 7
        assert d.stats.merges == 3
        assert d.stats.flushes_on_gap == 3


class TestReadsBreakContiguity:
    def test_read_flushes_pending(self):
        d = sd()
        d.on_write(0, BS, 1.0)
        flushed = d.on_read()
        assert len(flushed) == 1
        assert d.pending is None
        assert d.stats.flushes_on_read == 1

    def test_read_with_nothing_pending(self):
        assert sd().on_read() == []


class TestMergeLimit:
    def test_run_flushes_at_limit(self):
        d = sd()
        flushed = []
        for i in range(LIMIT):
            flushed += d.on_write(i * BS, BS, float(i))
        assert len(flushed) == 1
        assert flushed[0].nbytes == LIMIT * BS
        assert d.pending is None
        assert d.stats.flushes_on_limit == 1

    def test_oversized_single_write_flushes_immediately(self):
        d = sd()
        flushed = d.on_write(0, LIMIT * BS, 0.0)
        assert len(flushed) == 1
        assert d.pending is None

    def test_write_that_would_exceed_limit_starts_new_run(self):
        d = sd()
        d.on_write(0, (LIMIT - 1) * BS, 0.0)
        flushed = d.on_write((LIMIT - 1) * BS, 2 * BS, 1.0)  # one too many
        assert len(flushed) == 1
        assert flushed[0].nbytes == (LIMIT - 1) * BS
        assert d.pending.nbytes == 2 * BS


class TestTimeoutAndFlushAll:
    def test_flush_timeout(self):
        d = sd()
        d.on_write(0, BS, 0.0)
        runs = d.flush_timeout()
        assert len(runs) == 1
        assert d.stats.flushes_on_timeout == 1

    def test_flush_all_not_counted_as_timeout(self):
        d = sd()
        d.on_write(0, BS, 0.0)
        d.flush_all()
        assert d.stats.flushes_on_timeout == 0

    def test_flush_empty(self):
        assert sd().flush_timeout() == []
        assert sd().flush_all() == []


class TestRunMetadata:
    def test_arrivals_and_refs_tracked(self):
        d = sd()
        d.on_write(0, BS, 1.5, ref="req-a")
        d.on_write(BS, BS, 2.5, ref="req-b")
        run = d.flush_all()[0]
        assert run.arrivals == [1.5, 2.5]
        assert run.refs == ["req-a", "req-b"]

    def test_non_contiguous_gap_detected(self):
        d = sd()
        d.on_write(0, BS, 0.0)
        flushed = d.on_write(5 * BS, BS, 1.0)  # gap
        assert len(flushed) == 1
        assert d.stats.flushes_on_gap == 1

    def test_backwards_write_not_merged(self):
        d = sd()
        d.on_write(5 * BS, BS, 0.0)
        flushed = d.on_write(0, BS, 1.0)
        assert len(flushed) == 1

    def test_overlapping_write_not_merged(self):
        d = sd()
        d.on_write(0, 2 * BS, 0.0)
        flushed = d.on_write(BS, BS, 1.0)  # overlaps pending run
        assert len(flushed) == 1

    def test_run_blocks_histogram(self):
        d = sd()
        for lba in (0, BS):
            d.on_write(lba, BS, 0.0)
        d.on_read()
        assert d.stats.run_blocks == {2: 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            SequentialityDetector(block_size=0)
        with pytest.raises(ValueError):
            sd().on_write(0, 0, 0.0)


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),  # block number
                st.integers(min_value=1, max_value=4),   # blocks in request
                st.booleans(),                           # is read
            ),
            max_size=100,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_every_write_flushed_exactly_once(self, ops):
        d = sd()
        flushed_bytes = 0
        written_bytes = 0
        for i, (block, nblocks, is_read) in enumerate(ops):
            if is_read:
                for run in d.on_read():
                    flushed_bytes += run.nbytes
            else:
                nbytes = nblocks * BS
                written_bytes += nbytes
                for run in d.on_write(block * BS, nbytes, float(i)):
                    flushed_bytes += run.nbytes
        for run in d.flush_all():
            flushed_bytes += run.nbytes
        assert flushed_bytes == written_bytes
        assert d.pending is None

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_flushed_runs_are_contiguous(self, blocks):
        d = sd()
        runs = []
        for i, b in enumerate(blocks):
            runs += d.on_write(b * BS, BS, float(i))
        runs += d.flush_all()
        for run in runs:
            assert run.nbytes % BS == 0
            assert run.n_merged == run.nbytes // BS
