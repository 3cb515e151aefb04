"""Tests for the Codec abstraction and registry."""

import pytest

from repro.compression.codec import (
    Codec,
    CodecError,
    CodecRegistry,
    MAX_TAG,
    default_registry,
)


class _FakeCodec(Codec):
    def __init__(self, name, tag):
        self.name = name
        self.tag = tag

    def compress(self, data):
        return data[: len(data) // 2 or 1]

    def decompress(self, data, original_size=None):
        return data


class TestRegistry:
    def test_register_and_get(self):
        reg = CodecRegistry()
        c = _FakeCodec("fake", 7)
        reg.register(c)
        assert reg.get("fake") is c
        assert "fake" in reg

    def test_duplicate_name_rejected(self):
        reg = CodecRegistry()
        reg.register(_FakeCodec("x", 1))
        with pytest.raises(CodecError):
            reg.register(_FakeCodec("x", 2))

    def test_duplicate_tag_rejected(self):
        reg = CodecRegistry()
        reg.register(_FakeCodec("a", 1))
        with pytest.raises(CodecError):
            reg.register(_FakeCodec("b", 1))

    def test_tag_out_of_3_bits_rejected(self):
        reg = CodecRegistry()
        with pytest.raises(CodecError):
            reg.register(_FakeCodec("big", MAX_TAG + 1))
        with pytest.raises(CodecError):
            reg.register(_FakeCodec("neg", -1))

    def test_unknown_name_raises_with_known_list(self):
        reg = CodecRegistry()
        reg.register(_FakeCodec("only", 0))
        with pytest.raises(CodecError, match="only"):
            reg.get("missing")

    def test_iteration_and_names(self):
        reg = CodecRegistry()
        reg.register(_FakeCodec("b", 1))
        reg.register(_FakeCodec("a", 2))
        assert reg.names() == ["a", "b"]
        assert {c.name for c in reg} == {"a", "b"}


class TestDefaultRegistry:
    def test_paper_roster_present(self):
        reg = default_registry()
        for name in ("none", "lzf", "lz4", "gzip", "bzip2", "lzma", "zlib-1"):
            assert name in reg

    def test_tag_zero_is_no_compression(self):
        reg = default_registry()
        assert reg.get("none").tag == 0

    def test_tags_fit_three_bits(self):
        for codec in default_registry():
            assert 0 <= codec.tag <= MAX_TAG

    def test_tags_unique(self):
        tags = [c.tag for c in default_registry()]
        assert len(tags) == len(set(tags))

    def test_all_round_trip(self):
        data = b"tagged round trip " * 100
        for codec in default_registry():
            assert codec.decompress(codec.compress(data), len(data)) == data

    def test_fresh_instances(self):
        assert default_registry() is not default_registry()
