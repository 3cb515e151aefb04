"""Fig 11 — average response time (normalised to Native) on RAIS5.

Paper: the five-SSD RAID-5 array shows the same scheme ordering as the
single SSD, validating EDC's applicability to arrays.
"""

from repro.bench.schemes import SCHEMES


def test_fig11_response_time_rais5(exhibit):
    norm = exhibit("fig11").normalized("mean_response")
    ssd_norm = exhibit("fig10").normalized("mean_response")
    for t in norm:
        # Same qualitative ordering as the single-SSD case (Fig 10).
        assert norm[t]["Bzip2"] > norm[t]["Gzip"] > norm[t]["Lzf"]
        assert norm[t]["EDC"] < norm[t]["Bzip2"]

    # Cross-check with Fig 10: the winner ordering carries over, which is
    # the paper's claim of applicability to different flash systems.
    for t in norm:
        ssd_order = sorted(SCHEMES, key=lambda s: ssd_norm[t][s])
        rais_order = sorted(SCHEMES, key=lambda s: norm[t][s])
        # The extremes agree even if middle ranks jitter.
        assert ssd_order[-1] == rais_order[-1] == "Bzip2"
