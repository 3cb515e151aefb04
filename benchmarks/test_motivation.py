"""Benches for the paper's §I/§II motivating statistics.

The argument for elastic compression rests on measured facts about real
systems; these benches check our substrates actually exhibit them:

- compressibility is skewed (El-Shimi et al.: ~50% of chunks give ~86%
  of savings; ~31% do not compress at all);
- workloads alternate bursts with idleness (§II-C);
- block popularity is skewed (hot data drives overwrites and GC).
"""

from repro.compression.codec import default_registry
from repro.sdgen.analysis import profile
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentStore
from repro.tables import render_table
from repro.traces.analysis import access_skew, burstiness_summary, interarrival_stats
from repro.traces.workloads import WORKLOADS, make_workload


def test_compressibility_skew(benchmark):
    store = ContentStore(ENTERPRISE_MIX, pool_blocks=512, seed=17)
    gzip = default_registry().get("gzip")
    p = benchmark.pedantic(lambda: profile(store, gzip), rounds=1, iterations=1)
    print(
        f"\ncompressibility profile (enterprise mix, gzip): "
        f"mean ratio {p.mean_ratio:.2f}, "
        f"incompressible {p.incompressible_fraction:.0%}, "
        f"top-half savings share {p.half_chunks_savings_share:.0%}"
    )
    # El-Shimi's shape: ~1/3 incompressible, savings concentrated.
    assert 0.2 <= p.incompressible_fraction <= 0.45
    assert p.half_chunks_savings_share >= 0.7
    assert p.matches_paper_shape()


def test_workload_motivation_statistics(benchmark):
    def collect():
        rows = []
        for name in WORKLOADS:
            t = make_workload(name, duration=200.0, max_requests=None, seed=42)
            b = burstiness_summary(t)
            ia = interarrival_stats(t)
            hot_share, gini = access_skew(t)
            rows.append(
                [name, b.peak_to_mean, b.idle_fraction, ia.cv, hot_share, gini]
            )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["trace", "peak/mean", "idle frac", "interarrival CV",
             "hot-20% share", "gini"],
            rows,
            title="Motivation: burstiness, idleness and access skew",
        )
    )
    for name, peak_to_mean, idle_frac, cv, hot_share, gini in rows:
        assert peak_to_mean > 4, name       # bursts well above the mean
        assert idle_frac > 0.4, name        # most bins near-idle
        assert cv > 1.5, name               # bursty inter-arrivals
        assert hot_share > 0.3, name        # popularity skew present
