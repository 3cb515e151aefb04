"""Tests for the greedy collector and GC accounting."""

from repro.flash.ftl import ExtentFTL
from repro.flash.gc import GcStats, GreedyCollector
from repro.flash.geometry import NandGeometry


class TestVictimSelection:
    def test_picks_minimum_valid(self):
        c = GreedyCollector()
        valid = [100, 5, 50, 5, 200]
        assert c.select_victim([0, 2, 4], valid) == 2

    def test_tie_breaks_to_lowest_id(self):
        c = GreedyCollector()
        valid = [10, 10, 10]
        assert c.select_victim([2, 1], valid) == 1

    def test_no_candidates(self):
        assert GreedyCollector().select_victim([], [1, 2, 3]) is None

    def test_zero_valid_block_preferred(self):
        c = GreedyCollector()
        valid = [3, 0, 9]
        assert c.select_victim([0, 1, 2], valid) == 1


class TestStats:
    def test_note_collection_accumulates(self):
        c = GreedyCollector()
        c.note_collection(3, moved=1000, reclaimed=3000)
        c.note_collection(3, moved=500, reclaimed=3500)
        s = c.stats
        assert s.collections == 2
        assert s.moved_bytes == 1500
        assert s.reclaimed_bytes == 6500
        assert s.erases == 2
        assert s.erase_counts[3] == 2
        assert s.max_erase_count == 2

    def test_fresh_stats(self):
        s = GcStats()
        assert s.max_erase_count == 0
        assert s.erases == 0


class TestWriteAmplificationBehaviour:
    """Compression's reliability story: fewer bytes -> less GC -> fewer erases."""

    def _churn(self, extent_size, writes=400):
        geo = NandGeometry(page_size=4096, pages_per_block=8, nblocks=24, op_ratio=0.2)
        ftl = ExtentFTL(geo)
        for i in range(writes):
            ftl.write(i % 16, extent_size)
        return ftl

    def test_smaller_extents_cause_fewer_erases(self):
        raw = self._churn(4096)
        compressed = self._churn(2048)
        assert compressed.collector.stats.erases < raw.collector.stats.erases

    def test_wa_grows_with_utilization(self):
        geo = NandGeometry(page_size=4096, pages_per_block=8, nblocks=32, op_ratio=0.2)
        low = ExtentFTL(geo)
        high = ExtentFTL(geo)
        for i in range(2000):
            low.write(i % 8, 4096)    # 8 live blocks: lots of garbage/block
            high.write(i % 22, 4096)  # 22 live blocks: tight space
        assert high.stats.write_amplification() >= low.stats.write_amplification()

    def test_gc_reclaims_what_it_promises(self):
        geo = NandGeometry(page_size=4096, pages_per_block=8, nblocks=16, op_ratio=0.25)
        ftl = ExtentFTL(geo)
        for i in range(300):
            ftl.write(i % 8, 4096)
        s = ftl.collector.stats
        assert s.moved_bytes + s.reclaimed_bytes == s.collections * geo.block_bytes


class TestVictimSelectionSubsets:
    """Selection only ever considers the offered candidates."""

    def test_only_candidates_considered(self):
        c = GreedyCollector()
        valid = [0, 100, 50]
        # block 0 is emptiest overall but not a candidate
        assert c.select_victim([1, 2], valid) == 2

    def test_generator_candidates(self):
        c = GreedyCollector()
        valid = [9, 3, 7]
        assert c.select_victim((b for b in (0, 1, 2)), valid) == 1


class TestRetirementAccounting:
    def test_note_retirement_moves_history(self):
        s = GcStats()
        s.note_erase(3)
        s.note_erase(3)
        s.note_erase(5)
        s.note_retirement(3)
        assert 3 not in s.erase_counts
        assert s.retired_counts[3] == 2
        assert s.retired_blocks == 1
        # the survivor now bounds wear
        assert s.max_erase_count == 1

    def test_retiring_virgin_block(self):
        s = GcStats()
        s.note_retirement(7)
        assert s.retired_counts[7] == 0
        assert s.retired_blocks == 1

    def test_snapshot_exports_retirement(self):
        s = GcStats()
        s.note_erase(1)
        s.note_retirement(1)
        snap = s.snapshot()
        assert snap["retired_blocks"] == 1.0
        assert snap["max_erase_count"] == 0.0
        assert set(snap) == {"collections", "erases", "moved_bytes",
                             "reclaimed_bytes", "max_erase_count",
                             "retired_blocks"}
