"""Tests for CompressionStats, EDCConfig, and the Request Distributer."""

import pytest

from repro.core.config import EDCConfig
from repro.core.distributer import RequestDistributer
from repro.core.stats import CompressionStats
from repro.flash.geometry import x25e_like
from repro.flash.ssd import SimulatedSSD
from repro.sim.engine import Simulator


class TestCompressionStats:
    def test_empty(self):
        s = CompressionStats()
        assert s.compression_ratio == 1.0
        assert s.payload_ratio == 1.0
        assert s.space_saving == 0.0
        assert s.codec_shares() == {}

    def test_note_write_accumulates(self):
        s = CompressionStats()
        s.note_write("gzip", 4096, 1500, 2048, compressed=True, merged=False)
        s.note_write("none", 4096, 4096, 4096, compressed=False, merged=False)
        assert s.writes == 2
        assert s.compressed_writes == 1
        assert s.logical_bytes == 8192
        assert s.stored_bytes == 6144
        assert s.compression_ratio == pytest.approx(8192 / 6144)
        assert s.payload_ratio == pytest.approx(8192 / 5596)
        assert s.space_saving == pytest.approx(1 - 6144 / 8192)

    def test_codec_shares(self):
        s = CompressionStats()
        for _ in range(3):
            s.note_write("lzf", 4096, 2000, 2048, True, False)
        s.note_write("gzip", 4096, 1000, 1024, True, False)
        shares = s.codec_shares()
        assert shares["lzf"] == pytest.approx(0.75)
        assert shares["gzip"] == pytest.approx(0.25)

    def test_merged_counter(self):
        s = CompressionStats()
        s.note_write("lzf", 8192, 3000, 4096, True, merged=True)
        assert s.merged_runs == 1

    def test_stored_ratio_includes_rounding(self):
        """The paper's ratio is as-stored: size-class rounding included."""
        s = CompressionStats()
        s.note_write("gzip", 4096, 1100, 2048, True, False)
        assert s.compression_ratio == pytest.approx(2.0)
        assert s.payload_ratio > s.compression_ratio


class TestEDCConfig:
    def test_defaults_follow_paper(self):
        cfg = EDCConfig()
        assert cfg.block_size == 4096  # Linux page size (§III-D)
        assert cfg.size_class_fractions == (0.25, 0.50, 0.75, 1.0)  # §III-C
        assert cfg.sd_enabled
        assert cfg.compressibility_gate

    @pytest.mark.parametrize(
        "kw",
        [
            dict(block_size=0),
            dict(monitor_window=0.0),
            dict(sd_max_merge_blocks=0),
            dict(sd_flush_timeout=0.0),
            dict(cpu_threads=0),
            dict(verify_reads=True, store_payloads=False),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            EDCConfig(**kw)

    def test_frozen(self):
        with pytest.raises(Exception):
            EDCConfig().block_size = 8192


class TestRequestDistributer:
    @pytest.fixture
    def setup(self):
        sim = Simulator()
        ssd = SimulatedSSD(sim, geometry=x25e_like(32))
        return sim, ssd, RequestDistributer(ssd)

    def test_write_reaches_backend(self, setup):
        sim, ssd, dist = setup
        done = []
        dist.write("k", 0, 2048, on_complete=lambda: done.append(sim.now))
        sim.run()
        assert done
        assert ssd.ftl.contains("k")
        assert dist.stats.issued_writes == 1
        assert dist.stats.written_bytes == 2048

    def test_read_reaches_backend(self, setup):
        sim, ssd, dist = setup
        dist.read("k", 0, 1024)
        sim.run()
        assert ssd.stats.reads == 1
        assert dist.stats.read_bytes == 1024

    def test_trim_forwards(self, setup):
        sim, ssd, dist = setup
        dist.write("k", 0, 2048)
        sim.run()
        assert dist.trim("k")
        assert dist.stats.trims_attempted == 1
        assert not ssd.ftl.contains("k")

    def test_invalid_sizes(self, setup):
        _, _, dist = setup
        with pytest.raises(ValueError):
            dist.write("k", 0, 0)
        with pytest.raises(ValueError):
            dist.read("k", 0, -5)
