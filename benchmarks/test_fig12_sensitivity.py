"""Fig 12 — sensitivity of EDC to the gzip/lzf intensity threshold.

Paper: raising the share of requests compressed with Gzip increases the
compression ratio but also the response time, "significantly and
rapidly"; ~20% Gzip is the sweet spot.  The non-compression (skip) band
is held fixed during the sweep, as in the paper.

The paper sweeps Fin2; we sweep Fin2 (like-for-like) and additionally
Fin1, where the write-heavy mix makes the latency cost of the Gzip
share much steeper — the regime in which the paper's 20% knee appears.
"""


def _common_asserts(points):
    shares = [p.gzip_share for p in points]
    ratios = [p.compression_ratio for p in points]
    times = [p.mean_response for p in points]
    # The sweep actually moves the gzip share, monotonically, across a
    # wide range.
    assert shares[0] == 0.0
    assert shares[-1] > 0.5
    assert all(a <= b + 1e-9 for a, b in zip(shares, shares[1:]))
    # Compression ratio rises with the gzip share, and so does response
    # time (the paper's two curves).
    assert ratios[-1] > ratios[0] * 1.1
    assert times[-1] > times[0] * 1.03
    return shares, ratios, times


def test_fig12_threshold_sensitivity_fin2(exhibit):
    _common_asserts(exhibit("fig12")["Fin2"])


def test_fig12_threshold_sensitivity_fin1(exhibit):
    shares, ratios, times = _common_asserts(exhibit("fig12")["Fin1"])
    # Write-heavy trace: the response time rises faster than the ratio
    # ("increased significantly and rapidly"), so every point short of
    # all-gzip beats all-gzip on the composite.
    assert times[-1] / times[0] > ratios[-1] / ratios[0]
    composites = [r / t for r, t in zip(ratios, times)]
    assert max(composites[:-1]) > composites[-1]
