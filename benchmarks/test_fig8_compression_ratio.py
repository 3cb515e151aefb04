"""Fig 8 — compression ratio (normalised to Native) per scheme per trace.

Paper: Bzip2 best, then Gzip, EDC ~1.5 in between, Lzf lowest among the
compressing schemes.  EDC's ratio beats Lzf because it mixes Gzip in
during idle periods.
"""


def test_fig8_compression_ratio(exhibit):
    matrix = exhibit("fig8")
    norm = matrix.normalized("compression_ratio")
    for t in norm:
        # Strong codecs beat the fast codec on every trace.
        assert norm[t]["Gzip"] > norm[t]["Lzf"]
        assert norm[t]["Bzip2"] > norm[t]["Lzf"]
        # Every compressing scheme beats Native.
        for s in ("Lzf", "Gzip", "Bzip2", "EDC"):
            assert norm[t][s] > 1.0
        # EDC sits below the strong fixed codecs (it trades ratio for
        # responsiveness during bursts).
        assert norm[t]["EDC"] < norm[t]["Gzip"]

    # EDC's average ratio lands in the paper's neighbourhood (~1.2-1.6,
    # between Lzf-only and Gzip-only).
    means = matrix.mean_over_traces("compression_ratio")
    assert 1.1 <= means["EDC"] <= 1.7
