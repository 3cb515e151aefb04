"""Tests for the experiment harness (schemes, replay, reporting)."""

import dataclasses

import pytest

from repro.bench.experiments import ExperimentResult, ReplayConfig, replay, replay_all_schemes
from repro.bench.report import render_series
from repro.bench.schemes import SCHEMES, build_device, build_policy, scheme_config
from repro.core.config import EDCConfig
from repro.core.policy import ElasticPolicy, FixedPolicy, NativePolicy
from repro.tables import render_table
from repro.traces.model import IORequest, Trace
from repro.traces.workloads import make_workload


def small_cfg(**kw):
    base = ReplayConfig(capacity_mb=32, pool_blocks=32, **kw)
    return base


@pytest.fixture(scope="module")
def small_trace():
    return make_workload("Fin1", duration=None, max_requests=800, seed=7)


class TestSchemes:
    def test_roster(self):
        assert SCHEMES == ("Native", "Lzf", "Gzip", "Bzip2", "EDC")

    def test_policies(self):
        assert isinstance(build_policy("Native"), NativePolicy)
        assert isinstance(build_policy("EDC"), ElasticPolicy)
        lzf = build_policy("Lzf")
        assert isinstance(lzf, FixedPolicy) and lzf.codec_name == "lzf"
        assert build_policy("Gzip").codec_name == "gzip"
        assert build_policy("Bzip2").codec_name == "bzip2"

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            build_policy("Zstd")

    def test_only_edc_gets_sd_and_gate(self):
        for scheme in SCHEMES:
            cfg = scheme_config(scheme)
            if scheme == "EDC":
                assert cfg.sd_enabled and cfg.compressibility_gate
            else:
                assert not cfg.sd_enabled and not cfg.compressibility_gate

    def test_scheme_config_respects_base_disable(self):
        base = EDCConfig(sd_enabled=False)
        assert not scheme_config("EDC", base).sd_enabled


class TestReplayConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(backend="raid0")
        with pytest.raises(ValueError):
            ReplayConfig(fold_fraction=0.0)

    def test_fold_bytes_block_aligned(self):
        cfg = small_cfg()
        assert cfg.fold_bytes(4096) % 4096 == 0

    def test_rais5_fold_uses_data_devices(self):
        ssd = small_cfg().fold_bytes(4096)
        arr = small_cfg(backend="rais5").fold_bytes(4096)
        assert arr == pytest.approx(ssd * 4, rel=0.01)


class TestReplay:
    def test_replay_produces_result(self, small_trace):
        r = replay(small_trace, "Lzf", small_cfg())
        assert isinstance(r, ExperimentResult)
        assert r.scheme == "Lzf"
        assert r.n_requests == len(small_trace)
        assert r.compression_ratio > 1.0
        assert r.mean_response > 0
        assert r.composite == pytest.approx(r.compression_ratio / r.mean_response)

    def test_native_ratio_is_one(self, small_trace):
        r = replay(small_trace, "Native", small_cfg())
        assert r.compression_ratio == pytest.approx(1.0)
        assert r.space_saving == pytest.approx(0.0)

    def test_replay_deterministic(self, small_trace):
        a = replay(small_trace, "EDC", small_cfg())
        b = replay(small_trace, "EDC", small_cfg())
        assert a.mean_response == b.mean_response
        assert a.compression_ratio == b.compression_ratio

    def test_rais5_backend(self, small_trace):
        r = replay(small_trace.head(300), "EDC", small_cfg(backend="rais5"))
        assert r.mean_response > 0

    def test_all_schemes(self, small_trace):
        res = replay_all_schemes(
            small_trace.head(300), small_cfg(), schemes=("Native", "Lzf")
        )
        assert set(res) == {"Native", "Lzf"}

    def test_custom_bands(self, small_trace):
        from repro.core.policy import IntensityBand

        bands = (IntensityBand(float("inf"), "lzf"),)
        r = replay(small_trace.head(300), "EDC", small_cfg(), bands=bands)
        assert set(r.codec_shares) <= {"lzf", "none"}

    @pytest.mark.parametrize("scrub", [False, 0.5, "on"])
    def test_scrub_must_be_a_config_or_none(self, small_trace, scrub):
        with pytest.raises(TypeError, match="ScrubConfig"):
            replay(small_trace.head(50), "EDC", small_cfg(), scrub=scrub)


class TestReport:
    def test_render_table(self):
        out = render_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "2.500" in out

    def test_render_series(self):
        out = render_series("x", [1, 2], {"s1": [0.1, 0.2], "s2": [1.0, 2.0]})
        assert "s1" in out and "s2" in out
        assert "0.200" in out

