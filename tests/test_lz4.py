"""Tests for the from-scratch LZ4 block codec."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.codec import CodecError
from repro.compression.lz4 import LZ4Codec, lz4_compress, lz4_decompress


class TestRoundTrip:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"short",
            b"twelve bytes",
            b"thirteen bytes!",
            b"abcd" * 1000,
            bytes(4096),
            bytes(range(256)) * 8,
        ],
        ids=["empty", "one", "short", "mflimit", "just-above", "periodic", "zeros", "ramp"],
    )
    def test_round_trip(self, data):
        assert lz4_decompress(lz4_compress(data), len(data)) == data

    def test_round_trip_random(self):
        data = os.urandom(10000)
        assert lz4_decompress(lz4_compress(data), len(data)) == data

    def test_round_trip_without_size(self):
        data = b"repetition repetition repetition " * 64
        assert lz4_decompress(lz4_compress(data)) == data

    def test_codec_class(self):
        c = LZ4Codec()
        data = b"block format " * 333
        assert c.decompress(c.compress(data), len(data)) == data

    def test_long_matches_use_length_extension(self):
        data = b"Z" * 100_000
        comp = lz4_compress(data)
        assert lz4_decompress(comp, len(data)) == data
        assert len(comp) < 500

    def test_long_literal_runs_use_length_extension(self):
        data = os.urandom(5000)  # no matches -> literal run > 15
        assert lz4_decompress(lz4_compress(data), len(data)) == data


class TestFormatConstraints:
    def test_empty_block_is_single_zero_token(self):
        assert lz4_compress(b"") == b"\x00"

    def test_small_inputs_are_literal_only(self):
        # Below MFLIMIT (12), no matches are allowed.
        data = b"aaaaaaaaaaa"  # 11 bytes of 'a'
        out = lz4_compress(data)
        assert out == bytes([11 << 4]) + data

    def test_last_five_bytes_are_literals(self):
        # Even highly compressible tails must end in >= 5 literals.
        data = b"ab" * 100
        out = lz4_compress(data)
        # The final bytes of the stream are raw input bytes.
        assert out[-5:] == data[-5:]

    def test_decode_hand_built_sequence(self):
        # token: 4 literals, match len 4 (code 0); literals 'abcd'; offset 4.
        stream = bytes([(4 << 4) | 0]) + b"abcd" + bytes([4, 0]) + bytes([5 << 4]) + b"tail!"
        assert lz4_decompress(stream) == b"abcdabcdtail!"

    def test_overlap_copy(self):
        # 1 literal 'x', match offset 1 len 8 -> run of 9 'x', tail literals.
        stream = bytes([(1 << 4) | 4]) + b"x" + bytes([1, 0]) + bytes([5 << 4]) + b"ABCDE"
        assert lz4_decompress(stream) == b"x" * 9 + b"ABCDE"

    @pytest.mark.parametrize("offset", [1, 2, 3])
    @pytest.mark.parametrize("length", [4, 5, 18, 19, 300])
    def test_overlap_copy_repeats_the_last_offset_bytes(self, offset, length):
        # literals 'xyz', a match reaching offset back for length bytes
        # (it reads bytes it has itself just written), tail literals.
        code = length - 4
        ext = bytes([255] * ((code - 15) // 255) + [(code - 15) % 255]) if code >= 15 else b""
        stream = (
            bytes([(3 << 4) | min(code, 15)]) + b"xyz" + bytes([offset, 0]) + ext
            + bytes([5 << 4]) + b"ABCDE"
        )
        expected = bytearray(b"xyz")
        for _ in range(length):
            expected.append(expected[-offset])
        assert lz4_decompress(stream) == bytes(expected) + b"ABCDE"


class TestErrors:
    def test_empty_input_rejected(self):
        with pytest.raises(CodecError):
            lz4_decompress(b"")

    def test_zero_offset_rejected(self):
        stream = bytes([(1 << 4) | 0]) + b"a" + bytes([0, 0])
        with pytest.raises(CodecError):
            lz4_decompress(stream)

    def test_offset_before_start_rejected(self):
        stream = bytes([(1 << 4) | 0]) + b"a" + bytes([9, 0])
        with pytest.raises(CodecError):
            lz4_decompress(stream)

    def test_truncated_literals_rejected(self):
        with pytest.raises(CodecError):
            lz4_decompress(bytes([8 << 4]) + b"ab")

    def test_size_mismatch_detected(self):
        comp = lz4_compress(b"some data here")
        with pytest.raises(CodecError):
            lz4_decompress(comp, 5)


class TestCompressionBehaviour:
    def test_compresses_redundant_data(self):
        data = b"0123456789abcdef" * 512
        assert len(lz4_compress(data)) < len(data) // 4

    def test_incompressible_overhead_is_small(self):
        data = os.urandom(4096)
        out = lz4_compress(data)
        assert len(out) <= len(data) + 32

    def test_deterministic(self):
        data = b"stable output " * 200
        assert lz4_compress(data) == lz4_compress(data)


class TestPropertyBased:
    @given(st.binary(max_size=2048))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_arbitrary(self, data):
        assert lz4_decompress(lz4_compress(data), len(data)) == data

    @given(st.binary(min_size=1, max_size=32), st.integers(min_value=1, max_value=300))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_repeated(self, pattern, reps):
        data = pattern * reps
        assert lz4_decompress(lz4_compress(data), len(data)) == data

    @given(st.lists(st.sampled_from([b"\x00" * 64, b"abc", os.urandom(64)]), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_mixed_segments(self, parts):
        data = b"".join(parts)
        assert lz4_decompress(lz4_compress(data), len(data)) == data
