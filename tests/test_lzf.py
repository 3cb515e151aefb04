"""Tests for the from-scratch LZF codec, including wire-format details."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.codec import CodecError
from repro.compression.lzf import LZFCodec, lzf_compress, lzf_decompress


class TestRoundTrip:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"ab",
            b"abc",
            b"aaaa",
            b"abcabcabcabc",
            b"the quick brown fox " * 50,
            bytes(4096),
            bytes(range(256)) * 16,
        ],
        ids=["empty", "one", "two", "three", "rle4", "periodic", "text", "zeros", "ramp"],
    )
    def test_round_trip(self, data):
        assert lzf_decompress(lzf_compress(data), len(data)) == data

    def test_round_trip_random(self):
        data = os.urandom(8192)
        assert lzf_decompress(lzf_compress(data), len(data)) == data

    def test_round_trip_without_size_hint(self):
        data = b"hello world " * 100
        assert lzf_decompress(lzf_compress(data)) == data

    def test_codec_class_round_trip(self):
        c = LZFCodec()
        data = b"x" * 1000 + os.urandom(100)
        assert c.decompress(c.compress(data), len(data)) == data

    def test_long_match_beyond_264(self):
        # Matches are capped at 264 bytes; longer repeats need several refs.
        data = b"A" * 5000
        comp = lzf_compress(data)
        assert lzf_decompress(comp, len(data)) == data
        assert len(comp) < 200

    def test_far_reference_beyond_8k_window(self):
        # Distance > 8192 cannot be referenced; data must still round-trip.
        chunk = os.urandom(64)
        data = chunk + os.urandom(9000) + chunk
        assert lzf_decompress(lzf_compress(data), len(data)) == data


class TestCompressionBehaviour:
    def test_compresses_redundant_data(self):
        data = b"abcdefgh" * 512
        assert len(lzf_compress(data)) < len(data) // 4

    def test_random_data_expands_slightly(self):
        data = os.urandom(4096)
        out = lzf_compress(data)
        assert len(data) < len(out) <= len(data) + len(data) // 16 + 64

    def test_empty_input_empty_output(self):
        assert lzf_compress(b"") == b""
        assert lzf_decompress(b"") == b""

    def test_deterministic(self):
        data = b"determinism matters " * 100
        assert lzf_compress(data) == lzf_compress(data)


class TestWireFormat:
    def test_literal_run_encoding(self):
        # 3 incompressible bytes -> one control byte (len-1=2) + literals.
        out = lzf_compress(b"xyz")
        assert out == b"\x02xyz"

    def test_literal_runs_split_at_32(self):
        data = os.urandom(33)
        out = lzf_compress(data)
        # 32-byte run (ctrl 31) + 1-byte run (ctrl 0)
        assert out[0] == 31
        assert out[33] == 0

    def test_back_reference_decode(self):
        # literal 'abc', then a reference: len3=1 (match len 3), dist 3.
        stream = bytes([0x02]) + b"abc" + bytes([(1 << 5) | 0x00, 0x02])
        assert lzf_decompress(stream) == b"abcabc"

    def test_overlapping_copy_is_rle(self):
        # 'a' literal then a 5-byte match at distance 1 == run of 'a'.
        stream = bytes([0x00]) + b"a" + bytes([(3 << 5) | 0x00, 0x00])
        assert lzf_decompress(stream) == b"a" * 6

    @pytest.mark.parametrize("dist", [1, 2, 3])
    @pytest.mark.parametrize("length", [3, 4, 7, 263, 264])
    def test_overlapping_copy_repeats_the_last_dist_bytes(self, dist, length):
        # literals 'xyz', then a reference reaching dist back for length
        # bytes: the copy reads bytes it has itself just written.
        ref = (
            bytes([((length - 2) << 5) | 0x00, dist - 1])
            if length < 9
            else bytes([(7 << 5) | 0x00, length - 9, dist - 1])
        )
        expected = bytearray(b"xyz")
        for _ in range(length):
            expected.append(expected[-dist])
        assert lzf_decompress(bytes([0x02]) + b"xyz" + ref) == bytes(expected)

    def test_extended_length_byte(self):
        data = b"B" * 300
        assert lzf_decompress(lzf_compress(data), 300) == data


class TestErrors:
    def test_truncated_literal_run(self):
        with pytest.raises(CodecError):
            lzf_decompress(b"\x05ab")

    def test_truncated_reference(self):
        with pytest.raises(CodecError):
            lzf_decompress(bytes([0x20]))

    def test_reference_before_start(self):
        with pytest.raises(CodecError):
            lzf_decompress(bytes([(1 << 5) | 0x00, 0x09]))

    def test_size_mismatch_detected(self):
        comp = lzf_compress(b"hello")
        with pytest.raises(CodecError):
            lzf_decompress(comp, 999)


class TestPropertyBased:
    @given(st.binary(max_size=2048))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_arbitrary(self, data):
        assert lzf_decompress(lzf_compress(data), len(data)) == data

    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_repeated_patterns(self, pattern, reps):
        data = pattern * reps
        assert lzf_decompress(lzf_compress(data), len(data)) == data

    @given(st.binary(max_size=512))
    @settings(max_examples=100, deadline=None)
    def test_output_bounded(self, data):
        # Worst case: one control byte per 32 literals.
        out = lzf_compress(data)
        assert len(out) <= len(data) + len(data) // 32 + 1
