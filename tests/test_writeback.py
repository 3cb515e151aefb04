"""Tests for the write-back DRAM buffer layer."""

import pytest

from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.policy import ElasticPolicy, FixedPolicy
from repro.core.writeback import WriteBackBuffer
from repro.flash.geometry import x25e_like
from repro.flash.ssd import SimulatedSSD
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator
from repro.traces.model import IORequest


def setup(capacity=16, interval=1.0):
    sim = Simulator()
    ssd = SimulatedSSD(sim, geometry=x25e_like(32))
    content = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
    dev = EDCBlockDevice(
        sim, ssd, FixedPolicy("lzf"), content, EDCConfig(sd_enabled=False)
    )
    buf = WriteBackBuffer(
        sim, dev, capacity_blocks=capacity, flush_interval=interval,
    )
    return sim, ssd, dev, buf


def w(t, blk, nblocks=1):
    return IORequest(t, "W", blk * 4096, nblocks * 4096)


class TestBuffering:
    def test_write_acked_from_dram(self):
        sim, ssd, dev, buf = setup()
        sim.schedule_at(0.0, lambda: buf.submit(w(0.0, 0)))
        sim.run(until=0.5)
        assert buf.stats.buffered_writes == 1
        assert len(buf.unflushed_blocks()) == 1
        assert buf.write_latency.mean() < 1e-4   # microseconds, not device time
        assert dev.stats.writes == 0             # nothing hit the device yet

    def test_overwrite_is_a_hit(self):
        sim, _, _, buf = setup()
        sim.schedule_at(0.0, lambda: buf.submit(w(0.0, 5)))
        sim.schedule_at(0.1, lambda: buf.submit(w(0.1, 5)))
        sim.run(until=0.5)
        assert buf.stats.write_hits == 1
        assert len(buf.unflushed_blocks()) == 1

    def test_read_hit_served_from_buffer(self):
        sim, ssd, _, buf = setup()
        sim.schedule_at(0.0, lambda: buf.submit(w(0.0, 3)))
        sim.schedule_at(0.1, lambda: buf.submit(IORequest(0.1, "R", 3 * 4096, 4096)))
        sim.run(until=0.5)
        assert buf.stats.read_hits == 1
        assert ssd.stats.reads == 0

    def test_read_miss_passes_through(self):
        sim, ssd, _, buf = setup()
        sim.schedule_at(0.0, lambda: buf.submit(IORequest(0.0, "R", 99 * 4096, 4096)))
        sim.run()
        assert buf.stats.read_misses == 1
        assert ssd.stats.reads == 1


class TestFlushing:
    def test_watermark_triggers_flush(self):
        sim, _, dev, buf = setup(capacity=8)  # 0.75 watermark: 6 blocks
        for i in range(6):
            sim.schedule_at(i * 0.001, lambda i=i: buf.submit(w(i * 0.001, 10 + i)))
        sim.run(until=0.01)
        assert buf.stats.watermark_flushes >= 1
        assert len(buf.unflushed_blocks()) < 6

    def test_timer_flushes_everything(self):
        sim, _, dev, buf = setup(interval=0.5)
        sim.schedule_at(0.0, lambda: buf.submit(w(0.0, 1)))
        sim.run()  # the 0.5s timer fires
        assert buf.stats.timer_flushes == 1
        assert len(buf.unflushed_blocks()) == 0
        assert dev.stats.writes >= 1

    def test_flush_coalesces_contiguous_blocks(self):
        sim, _, dev, buf = setup()
        for i in range(4):  # blocks 0..3, contiguous
            sim.schedule_at(i * 0.001, lambda i=i: buf.submit(w(i * 0.001, i)))
        sim.schedule_at(0.01, lambda: buf.flush_all())
        sim.run()
        # One coalesced 16 KB write reached the device, not four 4 KB ones.
        assert dev.stats.writes == 1
        assert dev.stats.logical_bytes == 4 * 4096

    def test_flush_all_drains(self):
        sim, _, dev, buf = setup()
        for i in (0, 5, 9):
            sim.schedule_at(0.0, lambda i=i: buf.submit(w(0.0, i)))
        sim.schedule_at(0.1, lambda: buf.flush_all())
        sim.run()
        assert len(buf.unflushed_blocks()) == 0
        assert dev.outstanding == 0
        assert dev.stats.writes == 3  # three non-contiguous runs

    def test_clustering_effect(self):
        """Scattered-in-time writes reach the device clustered (§II-C)."""
        sim, _, dev, buf = setup(interval=2.0)
        for i in range(6):
            sim.schedule_at(i * 0.3, lambda i=i: buf.submit(w(i * 0.3, i)))
        sim.run()
        # All six arrive at the device in one timer batch as one run.
        assert buf.stats.flush_batches == 1
        assert dev.stats.merged_runs >= 1


class TestValidation:
    def test_parameter_validation(self):
        sim, _, dev, _ = setup()
        with pytest.raises(ValueError):
            WriteBackBuffer(sim, dev, capacity_blocks=0)
        with pytest.raises(ValueError):
            WriteBackBuffer(sim, dev, flush_interval=0.0)


class TestEndToEnd:
    def test_full_stack_with_edc(self):
        """buffer -> EDC -> flash, the paper's complete published stack."""
        sim = Simulator()
        ssd = SimulatedSSD(sim, geometry=x25e_like(32))
        content = ContentStore(ENTERPRISE_MIX, pool_blocks=32, seed=2)
        dev = EDCBlockDevice(sim, ssd, ElasticPolicy(), content, EDCConfig())
        buf = WriteBackBuffer(sim, dev, capacity_blocks=32, flush_interval=0.2)
        for i in range(20):
            sim.schedule_at(i * 0.01, lambda i=i: buf.submit(w(i * 0.01, i % 10)))
        sim.run()
        buf.flush_all()
        sim.run()
        assert dev.outstanding == 0
        assert len(buf.unflushed_blocks()) == 0
        # Overwrite absorption: 20 writes to 10 blocks -> at most 10 device
        # blocks per flush round.
        assert dev.stats.logical_bytes <= 20 * 4096


class TestPartialDirtyReads:
    def test_partially_dirty_range_is_a_miss(self):
        sim, ssd, dev, buf = setup()
        sim.schedule_at(0.0, lambda: buf.submit(w(0.0, 0)))  # block 0 dirty
        sim.schedule_at(
            0.1, lambda: buf.submit(IORequest(0.1, "R", 0, 2 * 4096))
        )  # blocks 0 (dirty) + 1 (clean)
        sim.run()
        assert buf.stats.read_misses == 1
        assert ssd.stats.reads == 1

    def test_multiblock_fully_dirty_is_a_hit(self):
        sim, ssd, dev, buf = setup()
        for i in range(3):
            sim.schedule_at(0.0, lambda i=i: buf.submit(w(0.0, i)))
        sim.schedule_at(
            0.1, lambda: buf.submit(IORequest(0.1, "R", 0, 3 * 4096))
        )
        sim.run(until=0.2)
        assert buf.stats.read_hits == 1
        assert ssd.stats.reads == 0
