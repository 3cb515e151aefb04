"""Tests for multi-seed replication."""

import pytest

from repro.bench.experiments import ReplayConfig
from repro.bench.replication import MetricSummary, replicate
from repro.traces.model import IORequest, Trace
from repro.traces.workloads import make_workload


class TestReplication:
    @pytest.fixture(scope="class")
    def summary(self):
        cfg = ReplayConfig(capacity_mb=32, pool_blocks=32)
        factory = lambda seed: make_workload("Fin1", max_requests=400, seed=seed)
        return replicate(factory, "Lzf", seeds=(1, 2, 3), cfg=cfg)

    def test_metrics_present(self, summary):
        for m in ("compression_ratio", "mean_response", "space_saving"):
            assert isinstance(summary[m], MetricSummary)
            assert summary[m].n == 3

    def test_ci_contains_mean(self, summary):
        s = summary["compression_ratio"]
        lo, hi = s.ci95
        assert lo <= s.mean <= hi

    def test_ratio_stable_across_seeds(self, summary):
        # Content population is fixed; ratio varies only mildly with the
        # request mix.
        s = summary["compression_ratio"]
        assert s.std / s.mean < 0.2

    def test_overlap_check(self):
        a = MetricSummary(1.0, 0.1, 0.2, 5)
        b = MetricSummary(1.3, 0.1, 0.2, 5)
        c = MetricSummary(2.0, 0.1, 0.2, 5)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda s: Trace("a", [IORequest(0.0, "W", 0, 4096)]),
                      "Native", seeds=())
