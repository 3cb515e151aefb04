"""The replayed text generator against the per-word loop it replaced.

``tests/reference_chunks.py`` is the oracle: ``TextChunk`` and
``CompressedChunk`` as they stood when every word drew through the
``Generator`` API.  A random sequence of chunk classes runs on two
generators seeded alike, one through the production classes and one
through the reference ones, and after every call the bytes and the full
``bit_generator.state`` must be equal.  The classes share one generator
per side, so the ``next_uint32`` half-word buffer left by one class
(code, binary records and random bytes draw 32-bit integers too) is
what the next one starts from.

The second half tests :func:`repro.sdgen.chunks._scan_numbers`, the
replay's one loop, as a pure function over crafted raw outputs: a
Lemire rejection, the block running out and a buffered half-word on
entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sdgen import chunks
from repro.sdgen.chunks import CHUNK_CLASSES, TextChunk, _scan_numbers
from tests import reference_chunks

#: production generator and oracle per chunk class; the classes the
#: replay did not touch are their own oracle
PAIRS = {
    kind: (cls(), getattr(reference_chunks, cls.__name__, cls)())
    for kind, cls in CHUNK_CLASSES.items()
}

calls = st.lists(
    st.tuples(
        st.sampled_from(sorted(CHUNK_CLASSES)),
        st.one_of(st.integers(1, 64), st.integers(1, 70_000)),
    ),
    min_size=1,
    max_size=6,
)


def assert_lockstep(seed, sequence):
    rng = np.random.default_rng(seed)
    oracle = np.random.default_rng(seed)
    for kind, size in sequence:
        gen, ref = PAIRS[kind]
        assert gen.generate(rng, size) == ref.generate(oracle, size), (kind, size)
        assert rng.bit_generator.state == oracle.bit_generator.state, (kind, size)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), calls)
def test_matches_the_reference_loop_after_every_call(seed, sequence):
    assert_lockstep(seed, sequence)


@pytest.mark.parametrize("sequence", [
    [("text", 4096)] * 3,
    [("code", 4096), ("text", 1), ("compressed", 4096), ("binary-record", 77),
     ("text", 4096)],
    [("random", 3), ("text", 70_000), ("compressed", 70_000)],
], ids=["text-only", "buffer-crosses-classes", "largest"])
def test_fixed_sequences(sequence):
    for seed in (0, 42):
        assert_lockstep(seed, sequence)


def test_a_block_that_runs_out_is_extended(monkeypatch):
    # Report every first block (2 outputs a word + 16) as run out, so
    # each call extends its block before the scan that succeeds.
    real, short = _scan_numbers, []

    def run_out_once(raw, n_words, *args):
        if len(raw) == 2 * n_words + 16:
            short.append(n_words)
            return None
        return real(raw, n_words, *args)

    monkeypatch.setattr(chunks, "_scan_numbers", run_out_once)
    assert_lockstep(3, [("text", 500), ("code", 100), ("compressed", 4096)])
    assert len(short) == 2


@pytest.mark.parametrize(
    "bitgen", [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox])
def test_other_bit_generators_are_refused(bitgen):
    with pytest.raises(TypeError, match=bitgen.__name__):
        TextChunk().generate(np.random.Generator(bitgen(1)), 100)


# -- the scan as a pure function ---------------------------------------

#: a raw output whose ``next_double`` is 0.0: the word draws a number
NUMBER = 0
#: ``next_double`` 0.5: no number
NO_NUMBER = 1 << 63


def raw(*outputs):
    return np.array(outputs, dtype=np.uint64)


def test_lemire_rejection_redraws_from_the_buffered_half():
    # The low half 0 gives leftover 0 < 967296: rejected.  The redraw
    # takes the high half the first draw buffered: 12345 * 10**6 =
    # 2 * 2**32 + 3755065408, accepted, value 2.
    assert chunks._NUMBER_REJECT == 967296
    assert _scan_numbers(raw(NUMBER, 12345 << 32, NO_NUMBER), 2, False, 7) == (
        [(0, 2)], 3, False, 12345,
    )


def test_rejection_after_rejection_takes_a_fresh_output():
    # Both halves of the first integer output are rejected (leftover 0
    # and, for 2**31, 2**31 * 10**6 = 500000 * 2**32: leftover 0 again).
    out = _scan_numbers(raw(NUMBER, (1 << 31) << 32, 12345 | 99 << 32), 1, False, 0)
    assert out == ([(0, 2)], 3, True, 99)


def test_the_block_running_out():
    assert _scan_numbers(raw(NUMBER), 1, False, 0) is None  # the integer draw
    assert _scan_numbers(raw(NUMBER, 0), 1, False, 0) is None  # its redraw
    assert _scan_numbers(raw(NO_NUMBER), 2, False, 0) is None  # a word's double
    assert _scan_numbers(raw(NO_NUMBER, NO_NUMBER), 2, False, 0) == ([], 2, False, 0)


def test_entry_with_a_buffered_half_word():
    # The first number takes the buffered 12345 and consumes no output;
    # the second takes the low half of output 2 and buffers its high half.
    out = _scan_numbers(raw(NUMBER, NUMBER, 12345 | 5 << 32), 2, True, 12345)
    assert out == ([(0, 2), (1, 2)], 3, True, 5)


def test_outputs_an_integer_draw_took_are_not_words():
    # Output 1 is taken by word 0's number, so word 1 is output 2 (no
    # number) even though output 1 would pass as a double below 0.15.
    assert _scan_numbers(raw(NUMBER, 12345, NO_NUMBER), 2, False, 0) == (
        [(0, 2)], 3, True, 0,
    )
