"""Tests for semantic (file-type) compression hints (§VI future work #1)."""

import pytest

from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.hints import DEFAULT_HINT_RULES, HintedPolicy, HintRules
from repro.core.policy import ElasticPolicy, IntensityBand
from repro.flash.geometry import x25e_like
from repro.flash.ssd import SimulatedSSD
from repro.sdgen.generator import ContentMix, ContentStore
from repro.sim.engine import Simulator
from repro.traces.model import IORequest


class TestHintRules:
    def test_default_rules_cover_known_incompressibles(self):
        assert DEFAULT_HINT_RULES.action_for("compressed") == "skip"
        assert DEFAULT_HINT_RULES.action_for("random") == "skip"
        assert DEFAULT_HINT_RULES.action_for("text") == "strong"
        assert DEFAULT_HINT_RULES.action_for("zero") == "fast"

    def test_unknown_class_unhinted(self):
        assert DEFAULT_HINT_RULES.action_for("mystery") is None
        assert DEFAULT_HINT_RULES.action_for(None) is None

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            HintRules(rules={"text": "turbo"})


IDLE = 10.0      # below the gzip band bound
BUSY = 1000.0    # inside the lzf band
PEAK = 1e9       # above the skip bound


class TestHintedPolicy:
    def test_skip_hint_forces_raw(self):
        p = HintedPolicy()
        assert p.select_codec(IDLE, hint="compressed") is None
        assert p.select_codec(BUSY, hint="random") is None

    def test_strong_hint_upgrades_busy_band(self):
        p = HintedPolicy()
        assert p.select_codec(BUSY, hint="text") == "gzip"

    def test_fast_hint_downgrades_idle_band(self):
        p = HintedPolicy()
        assert p.select_codec(IDLE, hint="zero") == "lzf"

    def test_hints_never_override_peak_protection(self):
        """Load protection wins: even 'strong' content skips at peak."""
        p = HintedPolicy()
        assert p.select_codec(PEAK, hint="text") is None

    def test_unhinted_defers_to_base(self):
        p = HintedPolicy()
        assert p.select_codec(IDLE) == "gzip"
        assert p.select_codec(BUSY) == "lzf"
        assert p.deferred == 2

    def test_decision_counters(self):
        p = HintedPolicy()
        p.select_codec(IDLE, hint="compressed")
        p.select_codec(IDLE, hint="text")
        assert p.hint_decisions["skip"] == 1
        assert p.hint_decisions["strong"] == 1

    def test_gate_exempt(self):
        p = HintedPolicy()
        assert p.gate_exempt("compressed")
        assert p.gate_exempt("text")
        assert not p.gate_exempt("mystery")
        assert not p.gate_exempt(None)

    def test_custom_base_policy(self):
        base = ElasticPolicy((IntensityBand(float("inf"), "lz4"),))
        p = HintedPolicy(base=base, rules=HintRules(rules={}, fast_codec="lz4"))
        assert p.select_codec(BUSY) == "lz4"


class TestDeviceIntegration:
    def _run(self, mix_kind, policy, semantic_hints):
        sim = Simulator()
        ssd = SimulatedSSD(sim, geometry=x25e_like(32))
        content = ContentStore(ContentMix("m", {mix_kind: 1.0}), pool_blocks=8, seed=1)
        cfg = EDCConfig(sd_enabled=False, semantic_hints=semantic_hints)
        dev = EDCBlockDevice(sim, ssd, policy, content, cfg)
        for i in range(4):
            sim.schedule_at(i * 0.01, lambda i=i: dev.submit(
                IORequest(i * 0.01, "W", i * 4096, 4096)))
        sim.run()
        dev.flush()
        sim.run()
        return dev

    def test_hinted_device_skips_estimator_for_known_content(self):
        dev = self._run("compressed", HintedPolicy(), semantic_hints=True)
        # Hint settled it: no estimator calls, everything stored raw.
        assert dev.engine.estimator.stats.total == 0
        assert dev.stats.compression_ratio == pytest.approx(1.0)

    def test_unhinted_device_pays_estimation(self):
        dev = self._run("compressed", ElasticPolicy(), semantic_hints=False)
        assert dev.engine.estimator.stats.total > 0

    def test_hinted_strong_content_gets_gzip_when_idle_writes(self):
        dev = self._run("text", HintedPolicy(), semantic_hints=True)
        assert dev.stats.per_codec_writes.get("gzip", 0) > 0


class TestBandObservers:
    """A hinted device shows its base's band ladder to every band
    observer: the sampler's band series and switch markers, the decision
    audit's bands, and the ladder's own per-band counts."""

    @staticmethod
    def _observed(policy):
        from repro.core.replay import TraceReplayer
        from repro.telemetry import DecisionAuditor, TimeSeriesSampler
        from repro.traces.workloads import make_workload

        sim = Simulator()
        geo = x25e_like(64)
        content = ContentStore(ContentMix("m", {"text": 1.0}), pool_blocks=32, seed=1)
        dev = EDCBlockDevice(
            sim, SimulatedSSD(sim, geometry=geo), policy, content, EDCConfig()
        )
        auditor = DecisionAuditor()
        auditor.bind_device(dev)
        sampler = TimeSeriesSampler(0.05)
        sampler.attach(sim, dev)
        sampler.start()
        trace = make_workload("Fin1", duration=3.0).scaled_addresses(
            int(geo.logical_bytes * 0.5) // 4096 * 4096
        )
        TraceReplayer(sim, dev).replay(trace)
        return sampler, auditor, policy.ladder

    def test_hinted_device_yields_the_elastic_band_view(self):
        # No rules: every write defers to the base, so the decisions —
        # and everything observed about their bands — must match.
        plain = self._observed(ElasticPolicy())
        hinted = self._observed(HintedPolicy(rules=HintRules()))
        (s_p, a_p, l_p), (s_h, a_h, l_h) = plain, hinted
        assert s_h.series["policy.band"].values() == s_p.series["policy.band"].values()
        markers = s_p.markers["band_switch"].events()
        assert markers and s_h.markers["band_switch"].events() == markers
        assert a_h.bands() == a_p.bands() and -1 not in a_h.bands()
        assert [a_h.band_label(b) for b in a_h.bands()] == [
            a_p.band_label(b) for b in a_p.bands()
        ]
        assert a_h.band_bounds() == a_p.band_bounds() == [250.0, 3000.0, None]
        assert l_h is not l_p and sum(l_p.band_counts) > 0
        assert l_h.band_counts == l_p.band_counts

    def test_ladder_is_declared_by_every_policy(self):
        from repro.core.policy import FixedPolicy, NativePolicy

        elastic = ElasticPolicy()
        assert elastic.ladder is elastic
        assert HintedPolicy(base=elastic).ladder is elastic
        assert HintedPolicy(base=FixedPolicy("lzf")).ladder is None
        assert NativePolicy().ladder is None
        assert not FixedPolicy("gzip").gate_exempt("text")
