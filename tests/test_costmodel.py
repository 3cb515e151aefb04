"""Tests for the calibrated codec cost model."""

import pytest

from repro.compression.costmodel import CodecCostModel, CodecSpeed, DEFAULT_SPEEDS


class TestCodecSpeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            CodecSpeed(0.0, 100.0)
        with pytest.raises(ValueError):
            CodecSpeed(100.0, -1.0)
        with pytest.raises(ValueError):
            CodecSpeed(100.0, 100.0, setup_us=-1.0)


class TestDefaults:
    def test_paper_roster_calibrated(self):
        m = CodecCostModel()
        for name in ("none", "lzf", "lz4", "gzip", "bzip2", "lzma", "zlib-1"):
            assert m.speed(name) is DEFAULT_SPEEDS[name]

    def test_speed_hierarchy_matches_fig2(self):
        """Fig 2: lz4 > lzf >> gzip > bzip2 on compression speed."""
        s = DEFAULT_SPEEDS
        assert s["lz4"].compress_mb_s > s["lzf"].compress_mb_s
        assert s["lzf"].compress_mb_s > s["gzip"].compress_mb_s
        assert s["gzip"].compress_mb_s > s["bzip2"].compress_mb_s

    def test_decompression_faster_than_compression(self):
        """Fig 2 / §III-E: D_Speed exceeds C_Speed for every codec."""
        for name, s in DEFAULT_SPEEDS.items():
            if name == "none":
                continue
            assert s.decompress_mb_s > s.compress_mb_s, name


class TestTimes:
    def test_none_is_free(self):
        m = CodecCostModel()
        assert m.compress_time("none", 1 << 20) == 0.0
        assert m.decompress_time("none", 1 << 20) == 0.0

    def test_time_scales_with_bytes(self):
        m = CodecCostModel()
        t1 = m.compress_time("gzip", 4096)
        t2 = m.compress_time("gzip", 8192)
        setup = DEFAULT_SPEEDS["gzip"].setup_us * 1e-6
        assert t2 - setup == pytest.approx(2 * (t1 - setup))

    def test_setup_overhead_included(self):
        m = CodecCostModel()
        assert m.compress_time("gzip", 0) == pytest.approx(
            DEFAULT_SPEEDS["gzip"].setup_us * 1e-6
        )

    def test_merged_block_cheaper_than_pieces(self):
        """Setup amortisation: one 16 KB call < four 4 KB calls."""
        m = CodecCostModel()
        assert m.compress_time("lzf", 16384) < 4 * m.compress_time("lzf", 4096)

    def test_negative_bytes_rejected(self):
        m = CodecCostModel()
        with pytest.raises(ValueError):
            m.compress_time("gzip", -1)
        with pytest.raises(ValueError):
            m.decompress_time("gzip", -1)

    def test_codec_ordering_per_block(self):
        m = CodecCostModel()
        assert m.compress_time("bzip2", 4096) > m.compress_time("gzip", 4096)
        assert m.compress_time("gzip", 4096) > m.compress_time("lzf", 4096)

    def test_unknown_codec_raises(self):
        with pytest.raises(KeyError, match="unknown"):
            CodecCostModel().compress_time("unknown", 100)
