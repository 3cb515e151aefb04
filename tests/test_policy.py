"""Tests for the compression policies (Native / fixed / elastic)."""

import pytest

from repro.core.policy import (
    DEFAULT_BANDS,
    ElasticPolicy,
    FixedPolicy,
    IntensityBand,
    NativePolicy,
)


class TestNative:
    def test_never_compresses(self):
        p = NativePolicy()
        for iops in (0.0, 100.0, 1e6):
            assert p.select_codec(iops) is None

    def test_no_gate(self):
        assert not NativePolicy().uses_gate


class TestFixed:
    def test_always_same_codec(self):
        p = FixedPolicy("lzf")
        for iops in (0.0, 1e6):
            assert p.select_codec(iops) == "lzf"

    def test_label_defaults_to_capitalised(self):
        assert FixedPolicy("gzip").name == "Gzip"
        assert FixedPolicy("bzip2", label="BZ").name == "BZ"

    def test_no_gate(self):
        assert not FixedPolicy("gzip").uses_gate

    def test_empty_codec_rejected(self):
        with pytest.raises(ValueError):
            FixedPolicy("")


class TestElastic:
    def test_default_bands_structure(self):
        """gzip when idle, lzf under load, skip at the top (§III-D)."""
        assert DEFAULT_BANDS[0].codec == "gzip"
        assert DEFAULT_BANDS[1].codec == "lzf"
        assert DEFAULT_BANDS[-1].codec is None
        assert DEFAULT_BANDS[-1].upper_iops == float("inf")

    def test_band_selection(self):
        p = ElasticPolicy(
            (
                IntensityBand(100.0, "gzip"),
                IntensityBand(1000.0, "lzf"),
                IntensityBand(float("inf"), None),
            )
        )
        assert p.select_codec(0.0) == "gzip"
        assert p.select_codec(99.9) == "gzip"
        assert p.select_codec(100.0) == "lzf"
        assert p.select_codec(999.0) == "lzf"
        assert p.select_codec(1000.0) is None
        assert p.select_codec(1e9) is None

    def test_band_counts_and_shares(self):
        p = ElasticPolicy(
            (
                IntensityBand(100.0, "gzip"),
                IntensityBand(float("inf"), "lzf"),
            )
        )
        for iops in (50, 50, 500, 500, 500, 500):
            p.select_codec(iops)
        assert p.band_counts == [2, 4]

    def test_shares_empty(self):
        assert ElasticPolicy().band_counts == [0, 0, 0]

    def test_shares_sum_to_one_when_used(self):
        p = ElasticPolicy()
        for iops in (0, 100, 5000, 50, 9000):
            p.select_codec(iops)
        # every selection lands in exactly one band
        assert sum(p.band_counts) == 5

    def test_band_labels(self):
        p = ElasticPolicy(
            (
                IntensityBand(100.0, "gzip"),
                IntensityBand(1000.0, "lzf"),
                IntensityBand(float("inf"), None),
            )
        )
        assert p.band_labels() == ["[0,100)", "[100,1000)", ">=1000"]

    def test_band_labels_align_with_band_index(self):
        p = ElasticPolicy()
        labels = p.band_labels()
        assert len(labels) == len(p.bands)
        assert labels[p.band_index(0.0)].startswith("[0,")
        assert labels[p.band_index(1e9)].startswith(">=")

    def test_uses_gate_by_default(self):
        assert ElasticPolicy().uses_gate
        assert not ElasticPolicy(gate=False).uses_gate

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            ElasticPolicy().select_codec(-1.0)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            ElasticPolicy(())
        with pytest.raises(ValueError):
            ElasticPolicy((IntensityBand(100.0, "gzip"),))  # no inf bound
        with pytest.raises(ValueError):
            ElasticPolicy(
                (
                    IntensityBand(100.0, "gzip"),
                    IntensityBand(100.0, "lzf"),
                    IntensityBand(float("inf"), None),
                )
            )  # not strictly increasing

    def test_matches_paper_semantics(self):
        """Higher-ratio codec at lower intensity; skip above the top bound."""
        p = ElasticPolicy()
        idle = p.select_codec(10.0)
        busy = p.select_codec(DEFAULT_BANDS[0].upper_iops + 1)
        peak = p.select_codec(DEFAULT_BANDS[1].upper_iops + 1)
        assert idle == "gzip"
        assert busy == "lzf"
        assert peak is None
