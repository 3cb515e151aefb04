"""Fig 10 — average response time (normalised to Native) on a single SSD.

Paper: Bzip2 worst (up to ~10x Native), Gzip similar trend, Lzf close to
Native (sometimes better), EDC best among compressing schemes.

Reproduction note (see EXPERIMENTS.md): the Bzip2/Gzip blow-up and the
Lzf~Native relationship reproduce; EDC lands between Lzf and Gzip rather
than strictly below Lzf, because with C-implementation codec speeds an
always-LZF scheme is nearly free in our open-loop replay.
"""


def test_fig10_response_time_single_ssd(exhibit):
    norm = exhibit("fig10").normalized("mean_response")
    for t in norm:
        # Bzip2 is the worst scheme everywhere, by a wide margin.
        assert norm[t]["Bzip2"] > norm[t]["Gzip"]
        assert norm[t]["Bzip2"] > 1.5
        # Gzip costs more than the fast codec.
        assert norm[t]["Gzip"] > norm[t]["Lzf"]
        # Lzf stays close to Native (within ~60%).
        assert norm[t]["Lzf"] < 1.6
        # EDC avoids the heavy-compression collapse entirely.
        assert norm[t]["EDC"] < norm[t]["Bzip2"]
        assert norm[t]["EDC"] < 3.0

    # Somewhere the paper's headline blow-up appears: Bzip2 reaching
    # several times Native on at least one trace.
    assert max(norm[t]["Bzip2"] for t in norm) > 5.0
