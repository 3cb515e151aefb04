"""Tests for the zlib/bz2/lzma wrappers and the Null codec."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.codec import CodecError
from repro.compression.stdcodecs import Bz2Codec, LzmaCodec, NullCodec, ZlibCodec

ALL = [NullCodec(), ZlibCodec(), Bz2Codec(), LzmaCodec(), ZlibCodec("zlib-1", 6, 1)]


@pytest.mark.parametrize("codec", ALL, ids=lambda c: c.name)
class TestRoundTrip:
    def test_text(self, codec):
        data = b"compression wrapper test " * 64
        assert codec.decompress(codec.compress(data), len(data)) == data

    def test_random(self, codec):
        data = os.urandom(2048)
        assert codec.decompress(codec.compress(data), len(data)) == data

    def test_empty(self, codec):
        assert codec.decompress(codec.compress(b""), 0) == b""

    def test_size_mismatch_detected(self, codec):
        comp = codec.compress(b"hello world")
        with pytest.raises(CodecError):
            codec.decompress(comp, 3)


class TestNull:
    def test_identity(self):
        data = os.urandom(128)
        assert NullCodec().compress(data) == data

    def test_tag_zero(self):
        assert NullCodec().tag == 0


class TestZlib:
    def test_level_affects_output_size(self):
        data = (b"abcdefgh" * 100 + os.urandom(50)) * 20
        fast = ZlibCodec("z1", 6, level=1).compress(data)
        best = ZlibCodec("z9", 7, level=9).compress(data)
        assert len(best) <= len(fast)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            ZlibCodec(level=0)
        with pytest.raises(ValueError):
            ZlibCodec(level=10)

    def test_garbage_input_raises_codec_error(self):
        with pytest.raises(CodecError):
            ZlibCodec().decompress(b"not zlib data")


class TestBz2:
    def test_best_ratio_on_large_text(self):
        # BWT needs volume and literal diversity: bzip2's advantage over
        # DEFLATE shows on large natural-ish text, not tiny repetitive data.
        import numpy as np

        from repro.sdgen.chunks import TextChunk

        data = TextChunk().generate(np.random.default_rng(3), 262144)
        z = ZlibCodec().compress(data)
        b = Bz2Codec().compress(data)
        assert len(b) < len(z)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            Bz2Codec(level=0)

    def test_garbage_raises(self):
        with pytest.raises(CodecError):
            Bz2Codec().decompress(b"\x00\x01\x02")


class TestLzma:
    def test_garbage_raises(self):
        with pytest.raises(CodecError):
            LzmaCodec().decompress(b"bogus")


class TestRatioHierarchy:
    """The Fig 2 ordering the paper's design rests on."""

    def test_bzip2_beats_gzip_beats_fast_codecs_on_text(self):
        import numpy as np

        from repro.compression.lzf import lzf_compress
        from repro.sdgen.chunks import TextChunk

        data = TextChunk().generate(np.random.default_rng(3), 262144)
        sizes = {
            "bzip2": len(Bz2Codec().compress(data)),
            "gzip": len(ZlibCodec().compress(data)),
            "lzf": len(lzf_compress(data)),
        }
        assert sizes["bzip2"] < sizes["gzip"] < sizes["lzf"]


class TestPropertyBased:
    @given(st.binary(max_size=1024))
    @settings(max_examples=50, deadline=None)
    def test_zlib_round_trip(self, data):
        c = ZlibCodec()
        assert c.decompress(c.compress(data), len(data)) == data

    @given(st.binary(max_size=512))
    @settings(max_examples=25, deadline=None)
    def test_bz2_round_trip(self, data):
        c = Bz2Codec()
        assert c.decompress(c.compress(data), len(data)) == data
