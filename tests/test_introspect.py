"""Tests for the device introspection layer (SMART, waterfall, heat, GC audit)."""

import dataclasses
import io
import json
import pathlib
import re
from collections import Counter

import numpy as np
import pytest

from repro.bench.experiments import ReplayConfig, replay
from repro.faults import FaultPlan
from repro.flash.introspect import (
    SpaceAccountingError,
    SpaceWaterfall,
    ftls_of,
    smart_snapshot,
    space_waterfall,
)
from repro.flash.scrub import ScrubConfig
from repro.telemetry.devhealth import (
    DeviceHealth,
    GcEpisode,
    TemperatureMap,
    dump_health_json,
    render_heatmap,
    render_smart,
    render_waterfall,
)
from repro.traces.synthetic import SyntheticTraceGenerator
from repro.traces.workloads import WORKLOADS, make_workload

PAPER_TRACES = ["Fin1", "Fin2", "Usr_0", "Prxy_0"]
LATENT_PLAN = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "latent_fin1.json"
)


def _replay_with_health(trace_name, scheme="EDC", cfg=None, max_requests=600,
                        **health_kw):
    trace = make_workload(trace_name, max_requests=max_requests)
    health = DeviceHealth(**health_kw)
    captured = {}
    replay(trace, scheme, cfg=cfg, health=health,
           on_built=lambda sim, dev, backend, devices: captured.update(
               dev=dev, sim=sim))
    return health, captured["dev"], captured["sim"]


# ----------------------------------------------------------------------
# space waterfall
# ----------------------------------------------------------------------
class TestWaterfallConservation:
    @pytest.mark.parametrize("trace_name", PAPER_TRACES)
    def test_conserves_on_paper_traces(self, trace_name):
        """The acceptance gate: waterfall sums exactly on all four traces."""
        health, dev, _ = _replay_with_health(trace_name)
        wf = health.waterfall()
        wf.verify(eps=1e-6)
        assert wf.ftl_exact
        assert wf.ftl_residual_bytes == 0
        assert wf.logical_bytes > 0
        assert wf.realized_ratio > 1.0  # compression won space

    def test_conserves_on_array_backend(self):
        cfg = ReplayConfig(backend="rais5")
        health, dev, _ = _replay_with_health("Fin1", cfg=cfg)
        wf = health.waterfall()
        wf.verify()
        # Parity bytes live in the FTLs but not in the allocator's slots.
        assert not wf.ftl_exact
        assert wf.ftl_residual_bytes > 0

    def test_stages_walk_to_effective_physical(self):
        health, _, _ = _replay_with_health("Fin2")
        wf = health.waterfall()
        stages = wf.stages()
        assert stages[0].name == "logical"
        assert stages[0].cumulative == wf.logical_bytes
        assert stages[-1].name == "retired"
        assert stages[-1].cumulative == wf.effective_physical_bytes
        # compression stage is a saving (negative delta)
        comp = next(s for s in stages if s.name == "compression")
        assert comp.delta == wf.payload_bytes - wf.logical_bytes
        assert comp.delta < 0

    def test_slack_split_by_size_class(self):
        health, dev, _ = _replay_with_health("Usr_0")
        wf = health.waterfall()
        fractions = {c.fraction for c in dev.allocator.classes}
        assert set(wf.slack_by_class) == fractions
        assert sum(wf.slack_by_class.values()) == wf.slack_bytes
        assert sum(wf.slots_by_class.values()) > 0
        # 100% slots carry no rounding slack by construction.
        assert wf.slack_by_class[1.0] == 0

    def test_verify_detects_counter_drift(self):
        health, _, _ = _replay_with_health("Fin1", max_requests=200)
        wf = health.waterfall()
        bad = SpaceWaterfall(
            **{
                **{f: getattr(wf, f) for f in wf.__dataclass_fields__},
                "counter_slack_bytes": wf.counter_slack_bytes + 1,
            }
        )
        with pytest.raises(SpaceAccountingError, match="internal_fragmentation"):
            bad.verify()

    def test_render_verifies_before_claiming(self):
        health, _, _ = _replay_with_health("Fin1", max_requests=200)
        wf = health.waterfall()
        assert "conservation verified" in render_waterfall(wf)
        bad = SpaceWaterfall(
            **{
                **{f: getattr(wf, f) for f in wf.__dataclass_fields__},
                "counter_payload_bytes": wf.counter_payload_bytes + 7,
            }
        )
        with pytest.raises(SpaceAccountingError):
            render_waterfall(bad)


class TestMaintainedTerms:
    """The waterfall reads the allocator's maintained terms; the walk in
    ``verify`` is their oracle on a real replayed device."""

    @pytest.mark.parametrize("attr, key, term", [
        ("_slack_by_fraction", 0.25, "slack_by_class[0.25]"),
        ("_live_by_fraction", 0.5, "slots_by_class[0.5]"),
        ("_live_payload", None, "live_payload_bytes"),
        ("_live_logical", None, "live_logical_bytes"),
        ("_live_slot_bytes", None, "live slots"),
    ])
    def test_verify_names_the_drifted_term(self, attr, key, term):
        health, dev, _ = _replay_with_health("Fin1", max_requests=200)
        health.waterfall().verify()
        allocator = dev.allocator
        if key is None:
            setattr(allocator, attr, getattr(allocator, attr) + 1)
        else:
            getattr(allocator, attr)[key] += 1
        with pytest.raises(SpaceAccountingError, match=re.escape(term)):
            health.waterfall().verify()

    def test_verify_walks_slack_counter(self):
        health, dev, _ = _replay_with_health("Fin1", max_requests=200)
        dev.allocator.stats.internal_fragmentation -= 3
        with pytest.raises(SpaceAccountingError,
                           match="walked slack vs internal_fragmentation"):
            health.waterfall().verify()

    def test_logical_bytes_match_the_mapping(self):
        health, dev, _ = _replay_with_health("Usr_0", max_requests=300)
        wf = health.waterfall()
        wf.verify()
        assert wf.logical_bytes == sum(
            dev.mapping.get(key).original_size
            for key, _cls, _stored in dev.allocator.live_items()
        )

    def test_stale_waterfall_refuses_to_verify(self):
        health, dev, _ = _replay_with_health("Fin1", max_requests=200)
        wf = health.waterfall()
        dev.allocator.allocate("extra", 100)
        with pytest.raises(SpaceAccountingError, match="stale"):
            wf.verify()
        # A fresh read is current, and shows a slot no mapping entry holds.
        with pytest.raises(SpaceAccountingError,
                           match="logical bytes of the mapping entries held"):
            health.waterfall().verify()

    def test_metadata_extents_reconcile_on_one_ssd(self):
        from repro.recovery import DurableMetadataManager, RecoveryParams

        manager = DurableMetadataManager(RecoveryParams(checkpoint_interval_s=0.5))
        captured = {}
        replay(make_workload("Fin1", duration=2.0), "EDC",
               ReplayConfig(backend="ssd"), recovery=manager,
               on_built=lambda sim, dev, backend, devices: captured.update(dev=dev))
        assert manager.meta_extent_keys
        wf = space_waterfall(captured["dev"])
        wf.verify()
        assert wf.ftl_exact and wf.meta_live_bytes > 0
        assert wf.ftl_residual_bytes == 0

    def test_hand_built_waterfall_checks_identities_only(self):
        health, _, _ = _replay_with_health("Fin1", max_requests=200)
        detached = dataclasses.replace(health.waterfall(), device=None)
        detached.verify()
        bad = dataclasses.replace(detached, payload_bytes=0)
        with pytest.raises(SpaceAccountingError, match="payload"):
            bad.verify()


# ----------------------------------------------------------------------
# SMART snapshot
# ----------------------------------------------------------------------
class TestSmartSnapshot:
    def test_fields_consistent_with_endurance_model(self):
        from repro.flash.endurance import EnduranceModel

        health, dev, sim = _replay_with_health("Fin1")
        snap = health.smart()
        ftls = ftls_of(dev.distributer.backend)
        assert len(ftls) == 1
        rep = EnduranceModel("SLC").report(ftls[0], sim.now)
        assert snap.total_erases == rep.total_erases
        assert snap.wear_max == rep.max_block_erases
        assert snap.write_amplification == pytest.approx(
            rep.write_amplification
        )
        assert snap.wear_fraction == pytest.approx(rep.wear_fraction)

    def test_histogram_covers_every_in_service_block(self):
        health, dev, _ = _replay_with_health("Fin2")
        snap = health.smart()
        ftl = ftls_of(dev.distributer.backend)[0]
        geo = ftl.geometry
        assert sum(snap.erase_histogram.values()) == (
            geo.nblocks - ftl.retired_blocks
        )
        assert snap.wear_p50 <= snap.wear_p95 <= snap.wear_max

    def test_wa_split_sums_to_written_bytes(self):
        health, dev, _ = _replay_with_health("Fin1")
        snap = health.smart()
        ftl = ftls_of(dev.distributer.backend)[0]
        split = snap.wa_split()
        assert sum(split.values()) == (
            ftl.stats.host_bytes + ftl.stats.relocated_bytes
        )
        assert split["host"] > 0
        assert split["gc"] == ftl.collector.stats.moved_bytes

    def test_scrub_repairs_have_their_own_wa_lane(self):
        """Repair writes go through the normal write path; the SMART
        page books them to the scrubber registered on the stack, not to
        host data."""
        captured = {}
        replay(
            make_workload("Fin1", duration=1.5), "EDC",
            ReplayConfig(backend="rais5"),
            fault_plan=FaultPlan.from_json(str(LATENT_PLAN)),
            scrub=ScrubConfig(interval_s=0.005),
            on_built=lambda sim, dev, backend, devices: captured.update(dev=dev),
        )
        dev = captured["dev"]
        split = smart_snapshot(dev, observed_seconds=1.5).wa_split()
        repaired = dev.observers["scrubber"].stats.repaired_bytes
        assert split["scrub"] == repaired > 0
        assert sum(split.values()) == sum(
            ftl.stats.host_bytes + ftl.stats.relocated_bytes
            for ftl in ftls_of(dev.backend)
        )

    def test_maintained_histogram_under_gc_and_retirement(self):
        """A GC-heavy Native slice whose program faults retire blocks: the
        erase histogram GcStats keeps equals a recount, and the wear
        fields equal numpy over the raw per-block list."""
        params = dataclasses.replace(WORKLOADS["Prxy_0"], address_space=64 << 20)
        trace = SyntheticTraceGenerator(params, seed=1).generate(max_requests=4000)
        captured = {}
        replay(trace, "Native", ReplayConfig(capacity_mb=16, fold_fraction=0.6),
               fault_plan=FaultPlan(seed=3, program_fault_prob=0.003),
               on_built=lambda sim, dev, backend, devices: captured.update(dev=dev))
        dev = captured["dev"]
        ftl = ftls_of(dev.backend)[0]
        stats = ftl.collector.stats
        assert ftl.retired_blocks > 0 and stats.erases > 0
        assert len(set(stats.erase_counts.values())) > 1
        assert stats.erase_histogram == Counter(stats.erase_counts.values())
        assert stats.max_erase_count == max(stats.erase_counts.values())

        snap = smart_snapshot(dev, observed_seconds=1.0)
        never = ftl.geometry.nblocks - ftl.retired_blocks - len(stats.erase_counts)
        raw = np.array(list(stats.erase_counts.values()) + [0] * never,
                       dtype=np.float64)
        assert snap.erase_histogram == Counter(raw.astype(int).tolist())
        assert snap.wear_p50 == float(np.percentile(raw, 50))
        assert snap.wear_p95 == float(np.percentile(raw, 95))
        assert snap.mean_block_erases == float(raw.mean())
        assert snap.wear_max == int(raw.max())

    def test_validation(self):
        health, dev, _ = _replay_with_health("Fin1", max_requests=100)
        with pytest.raises(ValueError):
            smart_snapshot(dev, -1.0)
        with pytest.raises(ValueError):
            smart_snapshot(dev, 1.0, cell_type="QLC")

    def test_render_smart_mentions_key_numbers(self):
        health, _, _ = _replay_with_health("Fin1", max_requests=200)
        text = render_smart(health.smart())
        assert "SMART (SLC" in text
        assert "WA " in text
        assert "DWPD" in text


# ----------------------------------------------------------------------
# temperature map
# ----------------------------------------------------------------------
class TestTemperatureMap:
    def test_ewma_decay_math(self):
        heat = TemperatureMap(region_bytes=1 << 20, half_life=2.0)
        heat.touch(0.0, "W", 0, 4.0)
        assert heat.heat_at(0, 0.0) == pytest.approx(4.0)
        # one half-life later the heat has halved
        assert heat.heat_at(0, 2.0) == pytest.approx(2.0)
        # touching again decays the old heat first, then adds
        heat.touch(2.0, "W", 100, 1.0)  # same region 0
        assert heat.heat_at(0, 2.0) == pytest.approx(3.0)

    def test_read_write_tracked_separately(self):
        heat = TemperatureMap()
        heat.touch(0.0, "W", 0, 2.0)
        heat.touch(0.0, "R", 0, 5.0)
        assert heat.heat_at(0, 0.0, "W") == pytest.approx(2.0)
        assert heat.heat_at(0, 0.0, "R") == pytest.approx(5.0)

    def test_regions_partition_lba_space(self):
        heat = TemperatureMap(region_bytes=1 << 20)
        assert heat.region_of(0) == 0
        assert heat.region_of((1 << 20) - 1) == 0
        assert heat.region_of(1 << 20) == 1

    def test_hottest_combined_and_per_op(self):
        heat = TemperatureMap()
        heat.touch(0.0, "W", 0, 1.0)
        heat.touch(0.0, "W", 1 << 20, 10.0)
        heat.touch(0.0, "R", 0, 5.0)
        assert heat.hottest(0.0, n=1) == [(1, 10.0)]  # region 1 wins on W
        combined = dict(heat.hottest(0.0, n=2))
        assert combined[0] == pytest.approx(6.0)  # 1 W + 5 R
        assert heat.hottest(0.0, n=1, op="R") == [(0, 5.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            TemperatureMap(region_bytes=0)
        with pytest.raises(ValueError):
            TemperatureMap(half_life=0.0)

    def test_fed_from_replay_monitor(self):
        health, _, sim = _replay_with_health("Fin1", max_requests=400)
        assert health.heat.touches > 0
        assert health.heat.max_region >= 0
        assert health.heat.hottest(sim.now)
        text = render_heatmap(health.heat, sim.now)
        assert "LBA temperature map" in text
        assert "hottest:" in text

    def test_empty_heatmap_renders(self):
        heat = TemperatureMap()
        assert "no accesses" in render_heatmap(heat, 0.0)


# ----------------------------------------------------------------------
# GC episode audit
# ----------------------------------------------------------------------
class TestGcAudit:
    def _gc_heavy(self):
        """Small device + tight fold so frontier refills force GC."""
        cfg = ReplayConfig(capacity_mb=16, fold_fraction=0.5)
        return _replay_with_health("Fin1", cfg=cfg, max_requests=12000)

    def test_episodes_recorded_with_low_free_trigger(self):
        health, dev, _ = self._gc_heavy()
        assert health.episodes_total > 0
        assert health.episodes_by_trigger.get("low_free", 0) > 0
        ftl = ftls_of(dev.distributer.backend)[0]
        assert health.episodes_total == ftl.collector.stats.collections

    def test_episode_fields(self):
        health, dev, _ = self._gc_heavy()
        ftl = ftls_of(dev.distributer.backend)[0]
        block_bytes = ftl.geometry.block_bytes
        for ep in health.episodes:
            assert ep.trigger == "low_free"
            assert ep.stream >= 0
            assert 0.0 <= ep.efficiency <= 1.0
            assert ep.efficiency == pytest.approx(
                ep.reclaimed_bytes / block_bytes
            )
            assert ep.erase_count >= 1
        assert health.moved_bytes_total == ftl.collector.stats.moved_bytes
        assert health.reclaimed_bytes_total == (
            ftl.collector.stats.reclaimed_bytes
        )

    def test_gc_table_renders(self):
        health, _, _ = self._gc_heavy()
        table = health.gc_table(last=4)
        assert "GC episode audit" in table
        assert "low_free" in table

    def test_retirement_episode(self):
        from repro.flash.ftl import ExtentFTL
        from repro.flash.geometry import NandGeometry
        from repro.sim.engine import Simulator

        geo = NandGeometry(page_size=4096, pages_per_block=8, nblocks=16,
                           op_ratio=0.25)
        ftl = ExtentFTL(geo)
        ftl.write("a", 4096)

        class _Backend:
            pass

        backend = _Backend()
        backend.ftl = ftl

        health = DeviceHealth()
        health.sim = Simulator()
        ftl.events.subscribe("retire", health._note_retire)
        ftl.retire_block(0)
        assert health.episodes_total == 1
        ep = health.episodes[0]
        assert ep.trigger == "retire"
        assert ep.stream == -1
        assert ep.efficiency == 0.0


# ----------------------------------------------------------------------
# composition: render, dump, dashboard, cluster rollups
# ----------------------------------------------------------------------
class TestComposition:
    def test_full_render_and_json_dump(self):
        health, _, _ = _replay_with_health("Fin1")
        text = health.render()
        for marker in ("SMART (", "space waterfall", "GC episode audit",
                       "LBA temperature map"):
            assert marker in text
        fp = io.StringIO()
        dump_health_json(health, fp)
        payload = json.loads(fp.getvalue())
        assert set(payload) == {"smart", "space", "gc_episodes", "gc_totals",
                                "heat"}
        space = payload["space"]
        assert space["stages"][-1]["cumulative"] == (
            space["effective_physical_bytes"]
        )
        assert payload["heat"]["touches"] == health.heat.touches

    def test_unbound_health_raises(self):
        health = DeviceHealth()
        with pytest.raises(RuntimeError):
            health.smart()
        with pytest.raises(RuntimeError):
            health.waterfall()

    def test_dashboard_health_panels(self):
        from repro.telemetry.dashboard import render_dashboard
        from repro.telemetry.timeseries import TimeSeriesSampler

        trace = make_workload("Fin1", max_requests=400)
        sampler = TimeSeriesSampler(interval=0.05)
        health = DeviceHealth()
        replay(trace, "EDC", sampler=sampler, health=health)
        out = render_dashboard(sampler, health=health)
        assert "── smart " in out
        assert "── space " in out
        assert "── space waterfall " in out
        assert "── temperature map " in out
        # without health the dashboard is unchanged
        plain = render_dashboard(sampler)
        assert "space waterfall" not in plain

    def test_standard_metrics_expose_health_families(self):
        from repro.telemetry.exposition import render_exposition
        from repro.telemetry.timeseries import TimeSeriesSampler

        trace = make_workload("Fin1", max_requests=400)
        sampler = TimeSeriesSampler(interval=0.05)
        health = DeviceHealth()
        replay(trace, "EDC", sampler=sampler, health=health)
        names = set(sampler.series)
        assert "smart.write_amplification" in names
        assert "space.realized_ratio" in names
        assert any(n.startswith("space.slack_by_class.") for n in names)
        assert "heat.regions" in names
        text = render_exposition(sampler=sampler)
        assert "smart_write_amplification" in text.replace("edc_ts_", "")

    def test_cluster_rollups(self):
        from repro.bench.cluster import render, run_cluster

        report = run_cluster(n_shards=2, n_tenants=2, max_requests=80)
        shards = report.sections["shards"]
        assert shards
        for shard in shards.values():
            assert "wear_max" in shard["smart"]
            assert shard["smart"]["realized_ratio"] > 0
        assert "wear_max" in render(report)
