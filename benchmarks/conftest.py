"""Shared fixture for the exhibit benchmarks.

``exhibit(name)`` computes a row of :data:`repro.bench.figures.EXHIBITS`
once per session, at the command line's parameters, prints its render
and returns its data.  Exhibits that share a compute function share its
data: Figs 8, 9 and 10 are three views of one single-SSD matrix.
"""

import pytest

from repro.bench.figures import DURATION, EXHIBITS


@pytest.fixture(scope="session")
def exhibit():
    data = {}

    def get(name):
        compute, render = EXHIBITS[name]
        if compute not in data:
            data[compute] = compute(DURATION)
        print()
        print(render(data[compute]))
        return data[compute]

    return get
