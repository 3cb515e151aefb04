"""Tests for the log-structured extent FTL and its garbage collection."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.ftl import (
    GC_FREE_THRESHOLD, DeviceFullError, ExtentFTL, FlashCost,
)
from repro.flash.geometry import NandGeometry, x25e_like


def tiny_geometry(nblocks=16, pages_per_block=4):
    """A small device so tests exercise block boundaries and GC quickly."""
    return NandGeometry(
        page_size=4096, pages_per_block=pages_per_block, nblocks=nblocks, op_ratio=0.25
    )


class TestBasicWrites:
    def test_write_and_query(self):
        ftl = ExtentFTL(tiny_geometry())
        cost = ftl.write("a", 4096)
        assert cost.host_bytes == 4096
        assert ftl.extent_size("a") == 4096
        assert ftl.live_bytes == 4096

    def test_overwrite_invalidates_old(self):
        ftl = ExtentFTL(tiny_geometry())
        ftl.write("a", 4096)
        ftl.write("a", 2048)
        assert ftl.extent_size("a") == 2048
        assert ftl.live_bytes == 2048
        assert ftl.stats.invalidations == 1

    def test_multiple_keys(self):
        ftl = ExtentFTL(tiny_geometry())
        for i in range(5):
            ftl.write(i, 1024 * (i + 1))
        assert ftl.live_bytes == 1024 * 15
        ftl.check_invariants()

    def test_extent_spanning_blocks(self):
        geo = tiny_geometry()
        ftl = ExtentFTL(geo)
        big = geo.block_bytes * 2 + 100
        ftl.write("big", big)
        assert ftl.extent_size("big") == big
        ftl.check_invariants()

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            ExtentFTL(tiny_geometry()).write("a", 0)

    def test_unknown_key_not_contained(self):
        ftl = ExtentFTL(tiny_geometry())
        assert ftl.extent_size("missing") is None


class TestTrim:
    def test_trim_removes_mapping(self):
        ftl = ExtentFTL(tiny_geometry())
        ftl.write("a", 4096)
        assert ftl.trim("a")
        assert ftl.extent_size("a") is None
        assert ftl.live_bytes == 0

    def test_trim_missing_returns_false(self):
        assert not ExtentFTL(tiny_geometry()).trim("nope")

    def test_trim_then_rewrite(self):
        ftl = ExtentFTL(tiny_geometry())
        ftl.write("a", 4096)
        ftl.trim("a")
        ftl.write("a", 8192)
        assert ftl.extent_size("a") == 8192
        ftl.check_invariants()


class TestGarbageCollection:
    def test_gc_triggered_by_overwrites(self):
        ftl = ExtentFTL(tiny_geometry(nblocks=8))
        for _ in range(40):
            ftl.write("hot", 8192)
        assert ftl.collector.stats.erases > 0
        ftl.check_invariants()

    def test_gc_cost_reported(self):
        ftl = ExtentFTL(tiny_geometry(nblocks=8))
        total = FlashCost()
        for _ in range(60):
            total = total + ftl.write("hot", 8192)
        assert total.erases > 0
        assert total.host_bytes == 60 * 8192

    def test_write_amplification_at_least_one(self):
        ftl = ExtentFTL(tiny_geometry())
        ftl.write("a", 4096)
        assert ftl.stats.write_amplification() >= 1.0

    def test_gc_preserves_live_extents(self):
        rng = random.Random(7)
        geo = tiny_geometry(nblocks=12)
        ftl = ExtentFTL(geo)
        expected = {}
        keys = list(range(8))
        for _ in range(300):
            k = rng.choice(keys)
            size = rng.choice([1024, 2048, 4096, 6000])
            ftl.write(k, size)
            expected[k] = size
        for k, size in expected.items():
            assert ftl.extent_size(k) == size
        ftl.check_invariants()

    def test_device_full_raises(self):
        geo = tiny_geometry(nblocks=8)
        ftl = ExtentFTL(geo)
        with pytest.raises(DeviceFullError):
            for i in range(1000):
                ftl.write(i, 4096)  # distinct keys: live data only grows

    def test_refused_overwrite_keeps_the_old_version(self):
        # The capacity check counts the old version as freed, but a
        # refused write must not have freed it.
        ftl = ExtentFTL(x25e_like(16))
        ftl.write("a", 4096)
        ftl.write("b", ftl.effective_logical_bytes - 4096)
        live, digest = ftl.live_bytes, ftl.validity_digest()
        assert live == 14_680_064
        with pytest.raises(DeviceFullError, match="14675968 B live of 14680064 B"):
            ftl.write("a", 8192)
        assert ftl.extent_size("a") == 4096
        assert ftl.live_bytes == live
        assert ftl.validity_digest() == digest
        ftl.check_invariants()
        ftl.write("a", 4096)  # an overwrite that fits still goes through
        assert ftl.live_bytes == live

    def test_full_device_recovers_after_trim(self):
        geo = tiny_geometry(nblocks=8)
        ftl = ExtentFTL(geo)
        written = []
        try:
            for i in range(1000):
                ftl.write(i, 4096)
                written.append(i)
        except DeviceFullError:
            pass
        for k in written:
            ftl.trim(k)
        ftl.write("fresh", 4096)  # usable again
        ftl.check_invariants()

    def test_erase_counts_tracked(self):
        ftl = ExtentFTL(tiny_geometry(nblocks=8))
        for _ in range(80):
            ftl.write("k", 8192)
        stats = ftl.collector.stats
        assert stats.max_erase_count >= 1
        assert sum(stats.erase_counts.values()) == stats.erases


class TestInvariantChecks:
    def test_fresh_ftl_consistent(self):
        ExtentFTL(tiny_geometry()).check_invariants()

    def test_gc_threshold_validation(self):
        # no room for the GC headroom beside the one frontier
        with pytest.raises(ValueError):
            ExtentFTL(tiny_geometry(nblocks=GC_FREE_THRESHOLD + 2))
        ExtentFTL(tiny_geometry(nblocks=GC_FREE_THRESHOLD + 3))


class TestFlashCost:
    def test_addition(self):
        a = FlashCost(host_bytes=10, moved_bytes=5, erases=1)
        b = FlashCost(host_bytes=20, moved_bytes=0, erases=2)
        c = a + b
        assert (c.host_bytes, c.moved_bytes, c.erases) == (30, 5, 3)


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10),
                st.integers(min_value=1, max_value=12000),
            ),
            min_size=1,
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_workload_invariants(self, ops):
        geo = tiny_geometry(nblocks=24)
        ftl = ExtentFTL(geo)
        expected = {}
        for key, size in ops:
            try:
                ftl.write(key, size)
            except DeviceFullError:
                break
            expected[key] = size
        ftl.check_invariants()
        for k, size in expected.items():
            assert ftl.extent_size(k) == size
        assert ftl.live_bytes == sum(expected.values())

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_overwrite_churn_never_leaks(self, keys):
        geo = tiny_geometry(nblocks=16)
        ftl = ExtentFTL(geo)
        for k in keys:
            ftl.write(k, 4096)
        ftl.check_invariants()
        assert ftl.live_bytes == len(set(keys)) * 4096


class TestMultiStream:
    def test_stream_validation(self):
        ftl = ExtentFTL(tiny_geometry(), n_streams=2)
        with pytest.raises(ValueError):
            ftl.write("a", 4096, stream=2)
        with pytest.raises(ValueError):
            ftl.write("a", 4096, stream=-1)
        with pytest.raises(ValueError):
            ExtentFTL(tiny_geometry(), n_streams=0)

    def test_device_too_small_for_streams(self):
        with pytest.raises(ValueError):
            ExtentFTL(tiny_geometry(nblocks=GC_FREE_THRESHOLD + 3), n_streams=4)

    def test_streams_fill_separate_blocks(self):
        geo = tiny_geometry()
        ftl = ExtentFTL(geo, n_streams=2)
        ftl.write("hot", 1024, stream=0)
        ftl.write("cold", 1024, stream=1)
        hot_block = ftl._extents["hot"][0].block_id
        cold_block = ftl._extents["cold"][0].block_id
        assert hot_block != cold_block
        ftl.check_invariants()

    def test_hot_cold_separation_reduces_relocation(self):
        """The point of multi-stream: segregating lifetimes cuts GC work."""
        geo = tiny_geometry(nblocks=24)

        def churn(n_streams):
            ftl = ExtentFTL(geo, n_streams=n_streams)
            # 4 hot keys overwritten constantly, 40 cold keys written once
            # and overwritten rarely; mixed arrival order.
            for i in range(2500):
                if i % 10 == 0:
                    key = 100 + (i // 10) % 40   # cold
                    stream = min(n_streams - 1, 1)
                else:
                    key = i % 4                  # hot
                    stream = 0
                ftl.write(key, 4096, stream=stream)
            ftl.check_invariants()
            return ftl

        mixed = churn(1)
        separated = churn(2)
        assert (
            separated.stats.relocated_bytes <= mixed.stats.relocated_bytes
        )
        assert separated.stats.write_amplification() <= (
            mixed.stats.write_amplification()
        )

    def test_gc_relocation_does_not_disturb_host_frontier(self):
        geo = tiny_geometry(nblocks=10)
        ftl = ExtentFTL(geo)
        # Fill enough to force GC while a host frontier is part-full.
        for i in range(120):
            ftl.write(i % 5, 4096)
        ftl.check_invariants()
        # GC frontier and host frontier never alias.
        actives = [b for b in ftl._active.values() if b >= 0]
        assert len(actives) == len(set(actives))
