"""Fig 3 — burst/idle access patterns of the OLTP and enterprise workloads.

Paper: per-second I/O intensity of the financial (OLTP) and MSR
(enterprise) traces alternates between bursts and idleness.
"""

from repro.bench.figures import idle_share


def test_fig3_burstiness(exhibit):
    series = exhibit("fig3")
    for name, (_, rates) in series.items():
        # Clear burstiness: peaks an order of magnitude above the mean.
        assert rates.max() > 5 * rates.mean(), name
        # Clear idleness: a majority of one-second bins are nearly empty.
        assert idle_share(rates) > 0.5, name

    # The enterprise workload idles longer than OLTP (Fig 3b vs 3a).
    assert idle_share(series["Usr_0"][1]) > idle_share(series["Fin1"][1])
