"""Fig 9 — the ratio/response-time composite metric, normalised to Native.

Paper: the fixed strong-compression schemes fall below Native on the
composite (their latency cost outweighs the ratio gain), while the
adaptive schemes (Lzf-style always-fast and EDC) stay at or above it.
"""

from repro.bench.schemes import SCHEMES


def test_fig9_composite(exhibit):
    norm = exhibit("fig9").normalized("composite")
    traces = list(norm)
    for t in traces:
        # Heavy fixed compression never beats Native on the composite
        # (the paper's central argument against it) ...
        assert norm[t]["Bzip2"] < 1.0
        # ... and the adaptive end of the spectrum dominates the heavy end.
        assert norm[t]["EDC"] > norm[t]["Bzip2"]
        assert norm[t]["Lzf"] > norm[t]["Gzip"]

    # On the write-heavy traces, Bzip2's composite fully collapses.
    assert sum(1 for t in traces if norm[t]["Bzip2"] < 0.2) >= 2

    # Averaged over traces, light/adaptive schemes are the best choices.
    mean = {s: sum(norm[t][s] for t in traces) / len(traces) for s in SCHEMES}
    best = max(mean, key=mean.get)
    assert best in ("Lzf", "EDC")
