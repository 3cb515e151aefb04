"""Fig 1 — SSD response time vs request size.

Paper: IOmeter against an Intel X25-E shows response time growing
approximately linearly with request size.  Here the same measurement
runs against the simulated device's service-time model.
"""

import numpy as np


def test_fig1_response_linear_in_size(exhibit):
    data = exhibit("fig1")
    sizes = np.array(data["size_kb"])
    for series in ("read_ms", "write_ms"):
        t = np.array(data[series])
        # Monotonically increasing ...
        assert np.all(np.diff(t) > 0)
        # ... and linear: perfect correlation with size.
        r = np.corrcoef(sizes, t)[0, 1]
        assert r > 0.999, (series, r)

    # Transfer dominates at large sizes: doubling 128->256 KB nearly
    # doubles the time (the paper's "approximately linear correlation").
    w = data["write_ms"]
    assert 1.8 < w[-1] / w[-2] < 2.05
