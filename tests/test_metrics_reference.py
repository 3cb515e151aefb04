"""Reference-model property tests for the measurement primitives.

Each metric class is checked against a brute-force recomputation over
the same event stream — the strongest form of unit test for stateful
accumulators with expiry/binning logic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.metrics import TimeSeries


class TestTimeSeriesReference:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=80,
        ),
        st.floats(min_value=0.25, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bins_match_bruteforce(self, points, width):
        ts = TimeSeries(width)
        for t, v in points:
            ts.add(t, v)
        edges, sums = ts.bins()
        max_idx = max(int(t / width) for t, _ in points)
        expected = np.zeros(max_idx + 1)
        for t, v in points:
            expected[int(t / width)] += v
        assert len(sums) == max_idx + 1
        assert np.allclose(sums, expected)
        assert np.allclose(edges, np.arange(max_idx + 1) * width)

    @given(st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=20, deadline=None)
    def test_rates_are_sums_over_width(self, width):
        ts = TimeSeries(width)
        ts.add(0.0, 3.0)
        _, rates = ts.rates()
        assert rates[0] == pytest.approx(3.0 / width)
