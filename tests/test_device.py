"""Tests for the EDC block device: write path, read path, mapping, stats."""

import pytest

from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.policy import ElasticPolicy, FixedPolicy, NativePolicy
from repro.flash.geometry import x25e_like
from repro.flash.ssd import SimulatedSSD
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentMix, ContentStore
from repro.sim.engine import Simulator
from repro.traces.model import IORequest


def build(policy=None, mix=None, **config_kw):
    sim = Simulator()
    ssd = SimulatedSSD(sim, geometry=x25e_like(64))
    content = ContentStore(
        mix if mix is not None else ENTERPRISE_MIX, pool_blocks=32, seed=1
    )
    cfg = EDCConfig(**config_kw)
    dev = EDCBlockDevice(
        sim, ssd, policy if policy is not None else FixedPolicy("gzip"), content, cfg
    )
    return sim, ssd, dev


def drive(sim, dev, requests):
    for req in requests:
        sim.schedule_at(req.time, lambda r=req: dev.submit(r))
    sim.run()
    dev.flush()
    sim.run()


class TestWritePath:
    def test_single_write_completes(self):
        sim, _, dev = build(sd_enabled=False)
        drive(sim, dev, [IORequest(0.0, "W", 0, 4096)])
        assert dev.outstanding == 0
        assert dev.write_latency.count == 1
        assert dev.stats.writes == 1
        assert dev.stats.logical_bytes == 4096

    def test_compressed_write_stores_fewer_bytes(self):
        sim, ssd, dev = build(mix=ContentMix("m", {"text": 1.0}), sd_enabled=False)
        drive(sim, dev, [IORequest(0.0, "W", 0, 4096)])
        assert dev.stats.stored_bytes < 4096
        assert ssd.stats.bytes_written < 4096

    def test_native_stores_raw(self):
        sim, ssd, dev = build(policy=NativePolicy(), sd_enabled=False)
        drive(sim, dev, [IORequest(0.0, "W", 0, 4096)])
        assert dev.stats.stored_bytes == 4096
        assert dev.compression_ratio() == 1.0

    def test_unaligned_write_rounded_to_blocks(self):
        sim, _, dev = build(sd_enabled=False)
        drive(sim, dev, [IORequest(0.0, "W", 100, 512)])
        assert dev.stats.logical_bytes == 4096

    def test_multi_block_write_is_one_entry(self):
        sim, _, dev = build(sd_enabled=False)
        drive(sim, dev, [IORequest(0.0, "W", 0, 16384)])
        assert len(dev.mapping) == 1
        entry = dev.mapping.lookup(8192)[1]
        assert entry.span == 4

    def test_overwrite_updates_mapping(self):
        sim, _, dev = build(sd_enabled=False)
        drive(
            sim,
            dev,
            [IORequest(0.0, "W", 0, 4096), IORequest(0.1, "W", 0, 4096)],
        )
        assert len(dev.mapping) == 1
        assert dev.stats.writes == 2

    def test_write_latency_positive(self):
        sim, _, dev = build(sd_enabled=False)
        drive(sim, dev, [IORequest(0.0, "W", 0, 4096)])
        assert dev.write_latency.mean() > 0


class TestSequentialityIntegration:
    def test_contiguous_writes_merge(self):
        sim, _, dev = build(policy=ElasticPolicy(), sd_enabled=True)
        reqs = [IORequest(i * 1e-5, "W", i * 4096, 4096) for i in range(3)]
        drive(sim, dev, reqs)
        assert dev.stats.merged_runs >= 1
        assert dev.write_latency.count == 3  # every request gets a latency

    def test_read_flushes_pending_run(self):
        sim, _, dev = build(policy=ElasticPolicy(), sd_enabled=True)
        drive(
            sim,
            dev,
            [
                IORequest(0.0, "W", 0, 4096),
                IORequest(1e-5, "W", 4096, 4096),
                IORequest(2e-5, "R", 99 * 4096, 4096),
            ],
        )
        assert dev.sd.stats.flushes_on_read == 1

    def test_timeout_flushes_lone_write(self):
        sim, _, dev = build(policy=ElasticPolicy(), sd_enabled=True)
        drive(sim, dev, [IORequest(0.0, "W", 0, 4096)])
        # flushed by timeout or final flush; either way it completed
        assert dev.outstanding == 0
        assert dev.write_latency.count == 1

    def test_sd_timer_fires_without_explicit_flush(self):
        sim, ssd, dev = build(policy=ElasticPolicy(), sd_enabled=True)
        sim.schedule_at(0.0, lambda: dev.submit(IORequest(0.0, "W", 0, 4096)))
        sim.run()  # includes the timeout event
        assert dev.outstanding == 0
        assert dev.sd.stats.flushes_on_timeout == 1


class TestReadPath:
    def test_read_after_write(self):
        sim, _, dev = build(sd_enabled=False)
        drive(
            sim,
            dev,
            [IORequest(0.0, "W", 0, 4096), IORequest(0.1, "R", 0, 4096)],
        )
        assert dev.read_latency.count == 1

    def test_read_of_compressed_fetches_stored_size(self):
        sim, ssd, dev = build(mix=ContentMix("m", {"text": 1.0}), sd_enabled=False)
        drive(
            sim,
            dev,
            [IORequest(0.0, "W", 0, 4096), IORequest(0.1, "R", 0, 4096)],
        )
        entry = dev.mapping.lookup(0)[1]
        assert ssd.stats.bytes_read == entry.size
        assert entry.size < 4096

    def test_unmapped_read_charged_raw(self):
        sim, ssd, dev = build(sd_enabled=False)
        drive(sim, dev, [IORequest(0.0, "R", 0, 8192)])
        assert ssd.stats.bytes_read == 8192
        assert dev.read_latency.count == 1

    def test_read_spanning_entry_and_hole(self):
        sim, ssd, dev = build(sd_enabled=False)
        drive(
            sim,
            dev,
            [
                IORequest(0.0, "W", 0, 4096),
                IORequest(0.1, "R", 0, 12288),  # block 0 mapped, 1-2 not
            ],
        )
        assert ssd.stats.reads == 2  # one entry read + one raw hole read
        assert dev.read_latency.count == 1

    def test_read_of_partially_overwritten_run(self):
        sim, _, dev = build(sd_enabled=False)
        drive(
            sim,
            dev,
            [
                IORequest(0.0, "W", 0, 12288),   # blocks 0-2
                IORequest(0.1, "W", 4096, 4096),  # overwrite block 1
                IORequest(0.2, "R", 0, 12288),
            ],
        )
        assert dev.outstanding == 0
        assert dev.read_latency.count == 1


class TestStats:
    def test_codec_shares(self):
        sim, _, dev = build(
            policy=FixedPolicy("gzip"),
            mix=ContentMix("m", {"text": 1.0}),
            sd_enabled=False,
        )
        drive(sim, dev, [IORequest(float(i) / 10, "W", i * 4096, 4096) for i in range(5)])
        shares = dev.stats.codec_shares()
        assert shares.get("gzip", 0) == pytest.approx(1.0)

    def test_incompressible_fails_75pct_under_fixed_scheme(self):
        sim, _, dev = build(
            policy=FixedPolicy("gzip"),
            mix=ContentMix("m", {"random": 1.0}),
            sd_enabled=False,
        )
        drive(sim, dev, [IORequest(0.0, "W", 0, 4096)])
        assert dev.stats.failed_75pct == 1
        assert dev.stats.stored_bytes == 4096

    def test_gate_skips_incompressible_under_edc(self):
        sim, _, dev = build(
            policy=ElasticPolicy(),
            mix=ContentMix("m", {"random": 1.0}),
            sd_enabled=False,
        )
        drive(sim, dev, [IORequest(0.0, "W", 0, 4096)])
        assert dev.stats.skipped_incompressible == 1

    def test_mean_response_combines_reads_and_writes(self):
        sim, _, dev = build(sd_enabled=False)
        drive(
            sim,
            dev,
            [IORequest(0.0, "W", 0, 4096), IORequest(0.1, "R", 0, 4096)],
        )
        total = dev.write_latency.total() + dev.read_latency.total()
        assert dev.mean_response_time() == pytest.approx(total / 2)

    def test_config_mismatch_rejected(self):
        sim = Simulator()
        ssd = SimulatedSSD(sim, geometry=x25e_like(32))
        content = ContentStore(ENTERPRISE_MIX, block_size=4096, pool_blocks=8)
        with pytest.raises(ValueError):
            EDCBlockDevice(
                sim, ssd, NativePolicy(), content, EDCConfig(block_size=8192)
            )


class TestEvictionPlumbing:
    def test_full_overwrite_frees_old_slot_and_extent(self):
        sim, ssd, dev = build(sd_enabled=False)
        drive(
            sim,
            dev,
            [IORequest(0.0, "W", 0, 4096), IORequest(0.1, "W", 0, 4096)],
        )
        assert dev.allocator.live_slots == 1
        assert dev.allocator.stats.frees >= 1
        # two slots programmed, one live: the first extent was trimmed
        assert ssd.ftl.live_bytes * 2 == ssd.stats.bytes_written

    def test_shadowed_run_reclaimed_after_full_cover(self):
        sim, _, dev = build(sd_enabled=False)
        reqs = [IORequest(0.0, "W", 0, 12288)]
        reqs += [IORequest(0.1 * (i + 1), "W", i * 4096, 4096) for i in range(3)]
        drive(sim, dev, reqs)
        assert len(dev.mapping) == 3
        assert dev.allocator.live_slots == 3


class TestHotColdStreams:
    def _run(self, hot_cold):
        from repro.core.policy import FixedPolicy
        from repro.traces.model import IORequest

        sim = Simulator()
        ssd = SimulatedSSD(sim, geometry=x25e_like(32), n_streams=2)
        content = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
        cfg = EDCConfig(sd_enabled=False, hot_cold_streams=hot_cold,
                        hot_version_threshold=3)
        dev = EDCBlockDevice(sim, ssd, FixedPolicy("lzf"), content, cfg)
        reqs = []
        t = 0.0
        # block 0 overwritten 6 times (hot), blocks 10..15 once (cold)
        for i in range(6):
            reqs.append(IORequest(t, "W", 0, 4096)); t += 0.01
        for i in range(6):
            reqs.append(IORequest(t, "W", (10 + i) * 4096, 4096)); t += 0.01
        for r in reqs:
            sim.schedule_at(r.time, lambda q=r: dev.submit(q))
        sim.run(); dev.flush(); sim.run()
        return ssd, dev

    def test_hot_writes_use_stream_one(self):
        ssd, dev = self._run(hot_cold=True)
        # Stream 1 frontier was opened (hot writes landed there).
        assert ssd.ftl._active[1] >= 0 or ssd.ftl._fill[1] > 0 or any(
            ssd.ftl._active[s] >= 0 for s in (1,)
        )
        ssd.ftl.check_invariants()

    def test_disabled_uses_single_stream(self):
        ssd, dev = self._run(hot_cold=False)
        assert ssd.ftl._active[1] == -1  # stream 1 never opened


class TestZombieSpace:
    def _device_with_zombie_runs(self):
        sim, ssd, dev = build(sd_enabled=False)
        reqs = [IORequest(0.0, "W", 0, 16 * 4096)]  # one 16-block run
        # overwrite 14 of its 16 blocks -> live fraction 2/16
        reqs += [
            IORequest(0.1 + i * 0.01, "W", i * 4096, 4096) for i in range(14)
        ]
        drive(sim, dev, reqs)
        return sim, ssd, dev

    @staticmethod
    def _merged_run(dev):
        eids = [e for e in dev.mapping.entry_ids() if dev.mapping.get(e).span > 1]
        assert len(eids) == 1
        return eids[0]

    def test_zombie_space_exists(self):
        _, _, dev = self._device_with_zombie_runs()
        assert dev.mapping.live_fraction(self._merged_run(dev)) == pytest.approx(2 / 16)

    def test_rewrite_entry_reclaims_zombie_space(self):
        sim, ssd, dev = self._device_with_zombie_runs()
        before = dev.allocator.live_physical_bytes
        n = dev.rewrite_entry(self._merged_run(dev))
        sim.run()
        assert n == 1  # blocks 14 and 15, one contiguous sub-run
        assert dev.outstanding == 0
        # The big run's slot was freed; live physical bytes dropped.
        assert dev.allocator.live_physical_bytes < before
        # Every block still resolves (blocks 14,15 via the rewrite).
        for blk in range(16):
            assert dev.mapping.lookup(blk * 4096) is not None
        dev.mapping.check_invariants()

    def test_rewrite_entry_reads_verify_after(self):
        sim = Simulator()
        ssd = SimulatedSSD(sim, geometry=x25e_like(64))
        content = ContentStore(ENTERPRISE_MIX, pool_blocks=32, seed=1)
        cfg = EDCConfig(sd_enabled=False, verify_reads=True)
        dev = EDCBlockDevice(sim, ssd, FixedPolicy("gzip"), content, cfg)
        reqs = [IORequest(0.0, "W", 0, 8 * 4096)]
        reqs += [IORequest(0.1 + i * 0.01, "W", i * 4096, 4096) for i in range(6)]
        drive(sim, dev, reqs)
        dev.rewrite_entry(self._merged_run(dev))
        sim.run()
        # Read everything back bit-exactly after the rewrite.
        drive(sim, dev, [IORequest(sim.now + 0.01, "R", 0, 8 * 4096)])
        assert dev.outstanding == 0