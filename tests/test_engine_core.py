"""Tests for the Compression & Decompression Engine (gate, 75% rule, costs)."""

import pytest

from repro.compression.costmodel import CodecCostModel
from repro.core.engine import CompressionEngine
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentMix, ContentStore


def store_of(kind, pool=16, seed=2):
    return ContentStore(ContentMix(kind, {kind: 1.0}), pool_blocks=pool, seed=seed)


@pytest.fixture
def text_engine():
    return CompressionEngine(store_of("text"))


@pytest.fixture
def random_engine():
    return CompressionEngine(store_of("random"))


class TestPolicyRawPath:
    def test_none_codec_stores_raw(self, text_engine):
        plan = text_engine.plan_write((0,), None, gate=True)
        assert plan.policy_raw
        assert plan.tag == 0
        assert plan.payload_size == plan.original_size == 4096
        assert plan.cpu_time == 0.0


class TestCompressionPath:
    def test_compressible_data_compressed(self, text_engine):
        plan = text_engine.plan_write((0,), "gzip", gate=True)
        assert plan.is_compressed
        assert plan.codec_name == "gzip"
        assert plan.tag == 3
        assert plan.payload_size < 4096 * 0.75
        assert plan.cpu_time > 0

    def test_payload_is_real_compression(self, text_engine):
        from repro.compression.codec import default_registry

        plan = text_engine.plan_write((0,), "gzip", gate=False)
        gzip = default_registry().get("gzip")
        expected = len(gzip.compress(text_engine.content.data_for_run((0,))))
        assert plan.payload_size == expected

    def test_merged_run_original_size(self, text_engine):
        plan = text_engine.plan_write((0, 1, 2), "lzf", gate=False)
        assert plan.original_size == 3 * 4096

    def test_unknown_codec_raises(self, text_engine):
        from repro.compression.codec import CodecError

        with pytest.raises(CodecError):
            text_engine.plan_write((0,), "snappy", gate=False)


class TestGate:
    def test_random_data_gated(self, random_engine):
        plan = random_engine.plan_write((0,), "gzip", gate=True)
        assert plan.gated
        assert plan.tag == 0
        assert plan.payload_size == plan.original_size
        assert plan.cpu_time > 0  # estimation is charged

    def test_gate_disabled_compresses_anyway(self, random_engine):
        plan = random_engine.plan_write((0,), "gzip", gate=False)
        assert not plan.gated
        # random data fails the 75% rule instead
        assert plan.failed_75pct
        assert plan.tag == 0

    def test_gate_decision_cached(self, random_engine):
        random_engine.plan_write((0,), "gzip", gate=True)
        calls_before = random_engine.estimator.stats.total
        random_engine.plan_write((0,), "gzip", gate=True)
        assert random_engine.estimator.stats.total == calls_before

    def test_gated_write_is_charged_only_the_estimate(self, random_engine):
        plan = random_engine.plan_write((0,), "gzip", gate=True)
        assert plan.gated
        assert plan.cpu_time == plan.estimate_time > 0.0


class Test75PercentRule:
    def test_barely_compressible_stored_raw(self):
        """§III-C: compressed > 75% of original -> kept uncompressed."""
        eng = CompressionEngine(store_of("compressed"), incompressible_fraction=0.75)
        plan = eng.plan_write((0,), "lzf", gate=False)
        assert plan.failed_75pct
        assert plan.tag == 0
        assert plan.payload_size == plan.original_size

    def test_cpu_still_charged_for_failed_attempt(self):
        eng = CompressionEngine(store_of("compressed"))
        plan = eng.plan_write((0,), "lzf", gate=False)
        assert plan.cpu_time > 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CompressionEngine(store_of("text"), incompressible_fraction=0.0)


class TestCosts:
    def test_cpu_time_uses_cost_model(self):
        cost = CodecCostModel()
        eng = CompressionEngine(store_of("text"), cost_model=cost)
        plan = eng.plan_write((0,), "gzip", gate=False)
        assert plan.cpu_time == pytest.approx(cost.compress_time("gzip", 4096))

    def test_slower_codec_costs_more(self, text_engine):
        fast = text_engine.plan_write((0,), "lzf", gate=False)
        slow = text_engine.plan_write((0,), "bzip2", gate=False)
        assert slow.cpu_time > fast.cpu_time

    def test_decompress_time(self, text_engine):
        assert text_engine.decompress_time("none", 4096) == 0.0
        t = text_engine.decompress_time("gzip", 4096)
        assert t == pytest.approx(
            text_engine.cost_model.decompress_time("gzip", 4096)
        )

    def test_estimation_cheaper_than_gzip(self, text_engine):
        est = text_engine._estimation_time(4096)
        gz = text_engine.cost_model.compress_time("gzip", 4096)
        assert est < gz / 3
