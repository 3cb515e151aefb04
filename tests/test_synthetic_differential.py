"""The bisecting trace generator against the ``Generator.choice`` loop it
replaced.

``tests/reference_synthetic.py`` is the oracle: ``generate`` as it
stood when every request size and every ON level was drawn with
``rng.choice(values, p=probs)``.  Random ``WorkloadParams`` run through
both seeded alike, and the request tuples must be equal, bit for bit:

- one to six sizes, a single size included (its draw still consumes a
  uniform), with zero probabilities among them;
- ``on_levels`` of ``None`` or two to three levels, and OFF periods
  with no arrivals;
- read and sequentiality probabilities that include 0 and 1;
- count-bounded, duration-bounded and doubly bounded runs;
- address spaces a few blocks wide, so sequential continuations and
  random placements overflow the end.

The second half tests :func:`repro.traces.synthetic._categorical` as a
draw primitive against ``choice`` itself: the same index for every
uniform, and the same generator state after every draw.  Random
uniforms practically never land on a cdf step or past an unnormalised
last entry, so a scripted generator pins those two cases.
"""

from bisect import bisect_right

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.traces.synthetic import (
    BurstModel,
    SyntheticTraceGenerator,
    WorkloadParams,
    _categorical,
)
from tests import reference_synthetic

BLOCK = 4096
#: probabilities at both ends, and anywhere between
probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def distribution(values, min_size, max_size):
    """``(value, probability)`` pairs; zero weights allowed, sum 1."""
    return st.lists(
        st.tuples(values, st.integers(0, 20)), min_size=min_size, max_size=max_size
    ).filter(lambda pairs: sum(w for _, w in pairs) > 0).map(
        lambda pairs: tuple(
            (v, w / sum(w for _, w in pairs)) for v, w in pairs
        )
    )


sizes = distribution(st.integers(1, 32).map(lambda k: 512 * k), 1, 6)
levels = st.one_of(st.none(), distribution(st.floats(1.0, 3000.0), 2, 3))


@st.composite
def workloads(draw):
    burst = BurstModel(
        on_iops=draw(st.floats(1.0, 3000.0)),
        off_iops=draw(st.sampled_from([0.0, 5.0, 40.0])),
        on_duration_mean=draw(st.floats(0.001, 1.0)),
        off_duration_mean=draw(st.floats(0.001, 2.0)),
        on_levels=draw(levels),
    )
    return WorkloadParams(
        name="w",
        read_ratio=draw(probability),
        size_dist=draw(sizes),
        write_seq_prob=draw(probability),
        read_seq_prob=draw(probability),
        burst=burst,
        address_space=BLOCK * draw(st.one_of(st.integers(1, 16), st.just(1 << 18))),
        hot_fraction=draw(st.floats(0.01, 1.0)),
        hot_weight=draw(probability),
        block=BLOCK,
    )


#: (duration, max_requests): count-bounded, duration-bounded, both
bounds = st.one_of(
    st.tuples(st.none(), st.integers(1, 400)),
    st.tuples(st.floats(0.001, 0.2), st.none()),
    st.tuples(st.floats(0.001, 2.0), st.integers(1, 400)),
)


def requests(trace):
    return [(r.time, r.op, r.lba, r.nbytes) for r in trace]


@settings(max_examples=200, deadline=None)
@given(workloads(), st.integers(0, 2**32 - 1), bounds)
def test_matches_the_reference_loop(params, seed, bound):
    duration, max_requests = bound
    got = SyntheticTraceGenerator(params, seed).generate(duration, max_requests)
    want = reference_synthetic.SyntheticTraceGenerator(params, seed).generate(
        duration, max_requests
    )
    assert got.name == want.name
    assert requests(got) == requests(want)


@settings(max_examples=200, deadline=None)
@given(
    distribution(st.integers(0, 99), 1, 12),
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
)
def test_categorical_draws_what_choice_draws(pairs, seed, n):
    values, cdf = _categorical(pairs)
    probs = np.array([p for _, p in pairs])
    rng = np.random.default_rng(seed)
    oracle = np.random.default_rng(seed)
    for _ in range(n):
        assert values[bisect_right(cdf, rng.random())] == values[
            oracle.choice(len(values), p=probs)
        ]
    assert rng.bit_generator.state == oracle.bit_generator.state


class ScriptedUniforms:
    """A generator stand-in: every uniform is ``u``, every exponential
    its mean and every integer its lower bound."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u

    def exponential(self, scale):
        return scale

    def integers(self, low, high):
        return low


def first_request(monkeypatch, u, **kw):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: ScriptedUniforms(u))
    params = WorkloadParams(name="w", read_ratio=0.0, write_seq_prob=0.0, **kw)
    return SyntheticTraceGenerator(params).generate(max_requests=1)[0]


def test_a_uniform_on_a_cdf_step_picks_the_value_above(monkeypatch):
    # ``searchsorted(side='right')``: a uniform equal to a step belongs to
    # the next value with a nonzero probability
    pairs = ((512, 0.5), (1024, 0.0), (2048, 0.5))
    assert np.searchsorted(_categorical(pairs)[1], 0.5, side="right") == 2
    levels = BurstModel(on_levels=((100.0, 0.5), (1000.0, 0.5)))
    req = first_request(monkeypatch, 0.5, size_dist=pairs, burst=levels)
    assert req.nbytes == 2048
    assert req.time == 1.0 / 1000.0


def test_the_cdf_ends_at_one_like_choices():
    # ten tenths sum to 1 - 2**-53 in float64; ``choice`` divides by
    # the sum, so the largest uniform still lands on the last value
    pairs = tuple((512 * (k + 1), 0.1) for k in range(10))
    values, cdf = _categorical(pairs)
    assert np.cumsum([0.1] * 10)[-1] == 1.0 - 2.0**-53
    assert cdf == (np.cumsum([0.1] * 10) / (1.0 - 2.0**-53)).tolist()
    assert cdf[-1] == 1.0


def test_the_largest_uniform_draws_the_last_size(monkeypatch):
    pairs = tuple((512 * (k + 1), 0.1) for k in range(10))
    assert first_request(monkeypatch, 1.0 - 2.0**-53, size_dist=pairs).nbytes == 5120
