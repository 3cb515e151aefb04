"""The table-driven LZ encoders against the per-byte loops they replaced.

``tests/reference_codecs.py`` is the oracle: for every input the shipped
encoder must produce the same bytes.  Inputs are biased towards what
separates the two implementations: tiny alphabets (every position has a
candidate, matches overlap and run to the length cap), lengths around
the format's limits, and a repeat placed exactly at, one short of and
one past the window.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.codec import CodecError
from repro.compression.lz4 import lz4_compress, lz4_decompress
from repro.compression.lzf import lzf_compress, lzf_decompress
from repro.compression.matchtable import match_candidates
from tests.reference_codecs import lz4_compress_reference, lzf_compress_reference

LZF_WINDOW = 8192
LZ4_WINDOW = 65535
#: minimum input for a key / literal-run cap / match cap / window
LZF_EDGES = (3, 33, 265, LZF_WINDOW + 1)
#: MFLIMIT + 1 / token nibble / first and second length-extension byte
LZ4_EDGES = (13, 15, 19, 270, 274)


def lengths(edges, top):
    near = [n for e in edges for n in range(max(e - 3, 0), e + 3)]
    return st.one_of(st.sampled_from(near), st.integers(0, top))


@st.composite
def buffers(draw, edges, top):
    """Seeded random bytes over an alphabet of 1, 2, 3, 16 or 256 symbols."""
    n = draw(lengths(edges, top))
    symbols = draw(st.sampled_from((1, 2, 3, 16, 256)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return bytes(rng.choices(range(symbols), k=n))


@st.composite
def far_repeats(draw, window):
    """``motif + noise + motif`` with the repeat around ``window`` back."""
    motif = draw(st.binary(min_size=4, max_size=40))
    dist = window + draw(st.integers(-2, 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tail = draw(st.integers(0, 20))  # LZ4 needs room after the repeat
    return motif + rng.randbytes(dist - len(motif)) + motif + rng.randbytes(tail)


class TestLZFAgainstReference:
    @given(buffers(LZF_EDGES, 9000))
    @settings(max_examples=300, deadline=None)
    def test_same_bytes(self, data):
        out = lzf_compress(data)
        assert out == lzf_compress_reference(data)
        assert lzf_decompress(out, len(data)) == data

    @given(far_repeats(LZF_WINDOW))
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_at_the_window_edge(self, data):
        assert lzf_compress(data) == lzf_compress_reference(data)

    @given(st.binary(max_size=600))
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_arbitrary(self, data):
        assert lzf_compress(data) == lzf_compress_reference(data)


class TestLZ4AgainstReference:
    @given(buffers(LZ4_EDGES, 9000))
    @settings(max_examples=300, deadline=None)
    def test_same_bytes(self, data):
        out = lz4_compress(data)
        assert out == lz4_compress_reference(data)
        assert lz4_decompress(out, len(data)) == data

    @given(far_repeats(LZ4_WINDOW))
    @settings(max_examples=25, deadline=None)
    def test_same_bytes_at_the_window_edge(self, data):
        assert lz4_compress(data) == lz4_compress_reference(data)

    @pytest.mark.parametrize("n", [LZ4_WINDOW, LZ4_WINDOW + 1, LZ4_WINDOW + 14])
    @pytest.mark.parametrize("symbols", [1, 3])
    def test_same_bytes_at_window_length(self, n, symbols):
        data = bytes(random.Random(n).choices(range(symbols), k=n))
        assert lz4_compress(data) == lz4_compress_reference(data)

    @given(st.binary(max_size=600))
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_arbitrary(self, data):
        assert lz4_compress(data) == lz4_compress_reference(data)


@pytest.mark.parametrize("encode", [lzf_compress, lz4_compress])
@pytest.mark.parametrize("data", [b"", b"ab", b"abcabcabc" * 40, bytes(700)])
def test_any_bytes_like_input_gives_the_same_output(encode, data):
    expected = encode(data)
    assert encode(bytearray(data)) == expected
    assert encode(memoryview(data)) == expected
    assert encode(memoryview(bytearray(data))) == expected


class TestMatchCandidates:
    """The table itself, against the dict it replaces."""

    @given(buffers((3,), 400), st.sampled_from((3, 4)), st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_dict_of_last_occurrences(self, data, key_len, max_dist):
        n = len(data)
        n_keys = n - key_len + 1
        cand_of, next_match = match_candidates(data, key_len, n_keys, max_dist)
        last: dict = {}
        expected = {}
        for i in range(n_keys):
            p = last.get(data[i : i + key_len])
            if p is not None and i - p <= max_dist:
                expected[i] = p
            last[data[i : i + key_len]] = i
        assert len(next_match) == n + 1
        for i in range(n + 1):
            following = min((j for j in expected if j >= i), default=n)
            assert next_match[i] == following
        assert {i: cand_of[i] for i in expected} == expected

    def test_positions_past_int32_are_refused(self):
        class Huge(bytes):
            def __len__(self):
                return 2**31

        with pytest.raises(CodecError):
            match_candidates(Huge(), 3, 2**31 - 2, 8192)
