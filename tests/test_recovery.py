"""Tests for the crash-consistency machinery (``repro.recovery``).

Covers the durable-metadata protocol at every layer: journal tail
durability and truncation, checkpoint retention, OOB program/discard
ordering, the three-source recovery scan with newest-seqno-wins overlay
resolution, all-or-nothing recovery of merged runs, deterministic
rebuilds, CRC scrubbing, the in-band metadata charge showing up in
write amplification, and the no-crash invariant that the machinery
never changes what a replay computes.
"""

import dataclasses

import pytest

from repro.bench.experiments import ReplayConfig, replay
from repro.core.config import EDCConfig
from repro.flash.geometry import x25e_like
from repro.recovery import (
    CheckpointStore,
    DurableMetadataManager,
    ExtentRecord,
    IntegrityTracker,
    MetadataJournal,
    OOBArea,
    RecoveredState,
    RecoveryParams,
    RecoveryScanner,
    block_crcs,
)
from repro.recovery.formats import JOURNAL_RECLAIM_BYTES
from repro.recovery.journal import JOURNAL_FLUSH_BYTES
from repro.traces.workloads import make_workload

BS = 4096


def rec(seqno, blk, span=1, size=1024, run0=100):
    """A minimal valid record covering ``span`` blocks from ``blk``."""
    original = span * BS
    # The slot class the size-class allocator (25/50/75/100 %) would pick.
    slot = next(
        int(original * f) for f in (0.25, 0.50, 0.75, 1.0)
        if size <= int(original * f)
    )
    return ExtentRecord(
        seqno=seqno,
        lba=blk * BS,
        span=span,
        tag=7,
        size=size,
        original_size=original,
        versions=tuple(range(1, span + 1)),
        run_ids=tuple(run0 + i for i in range(span)),
        codec_name="lzf",
        slot_bytes=slot,
    )


class TestJournal:
    def test_tail_is_volatile_until_flush(self):
        j = MetadataJournal()
        j.append_insert(rec(1, 0))
        assert j.pending_records == 1 and j.durable_records == 0
        j.flush()
        assert j.pending_records == 0 and j.durable_records == 1

    def test_auto_flush_at_threshold(self):
        j = MetadataJournal()
        below = JOURNAL_FLUSH_BYTES // JOURNAL_RECLAIM_BYTES
        for seqno in range(below):
            j.append_reclaim(seqno)
        assert j.durable_records == 0  # still under the threshold
        j.append_reclaim(below)
        assert j.durable_records == below + 1

    def test_flush_pads_and_charges(self):
        charged = []
        j = MetadataJournal(charge=charged.append)
        j.append_reclaim(3)
        j.flush()
        assert charged == [64]  # 13-byte record padded to the program unit

    def test_lose_volatile_tail(self):
        j = MetadataJournal()
        j.append_insert(rec(1, 0))
        j.flush()
        j.append_insert(rec(2, 1))
        assert j.lose_volatile_tail() == 1
        assert j.pending_records == 0 and j.durable_records == 1
        assert j.stats.lost_tail_records == 1
        # positions are never reused for new appends
        assert j.next_pos == 2

    def test_truncate_drops_only_checkpointed_prefix(self):
        j = MetadataJournal()
        for s in range(1, 5):
            j.append_insert(rec(s, s))
        j.flush()
        assert j.truncate(upto_pos=2) == 2
        assert [r.extent.seqno for r in j.replay_after(0)] == [3, 4]


class TestCheckpointStore:
    def test_keeps_last_two_images(self):
        from repro.recovery.checkpoint import CheckpointImage

        store = CheckpointStore()
        for seq in range(1, 4):
            store.write(CheckpointImage(
                seq=seq, taken_at=float(seq), next_seqno=1, upto_pos=0,
                records=(),
            ))
        assert len(store._images) == 2
        assert store.latest().seq == 3
        assert store.last_taken_at == 3.0


class TestOOB:
    def test_scan_orders_by_seqno_and_counts_pages(self):
        oob = OOBArea()
        oob.program("b", rec(2, 1))
        oob.program("a", rec(1, 0))
        scanned = oob.scan()
        assert [r.seqno for r in scanned] == [1, 2]
        assert oob.stats.scan_pages_read == 2

    def test_discard_removes_record(self):
        oob = OOBArea()
        oob.program("a", rec(1, 0))
        oob.discard("a")
        assert oob.scan() == []


class TestScanner:
    def scan(self, ckpt_records=(), journal=None, oob_records=(), now=0.0):
        store = CheckpointStore()
        if ckpt_records:
            from repro.recovery.checkpoint import CheckpointImage

            store.write(CheckpointImage(
                seq=1, taken_at=0.0,
                next_seqno=max(r.seqno for r in ckpt_records) + 1,
                upto_pos=0, records=tuple(ckpt_records),
            ))
        j = journal if journal is not None else MetadataJournal()
        oob = OOBArea()
        for i, r in enumerate(oob_records):
            oob.program(("e", i), r)
        return RecoveryScanner(store, j, oob, BS).scan(now=now)

    def test_journal_replay_applies_inserts_and_reclaims(self):
        j = MetadataJournal()
        j.append_insert(rec(1, 0))
        j.append_insert(rec(2, 5))
        j.append_reclaim(1)
        j.flush()
        state, report = self.scan(journal=j)
        assert set(state.records) == {2}
        assert report.journal_replay_len == 3
        assert report.reclaims_applied == 1

    def test_oob_supplies_records_lost_with_the_tail(self):
        j = MetadataJournal()
        j.append_insert(rec(1, 0))
        j.flush()
        state, report = self.scan(journal=j, oob_records=(rec(1, 0), rec(2, 5)))
        assert set(state.records) == {1, 2}
        assert report.oob_only_entries == 1
        assert report.scan_pages_read == 2

    def test_overlay_resolution_newest_seqno_wins(self):
        # 1 covers blocks 0-3; 2 overwrites 1-2; 3 overwrites 0 and 3:
        # record 1 ends with zero coverage and must be dropped even
        # though its reclaim record was lost with the volatile tail.
        state, report = self.scan(oob_records=(
            rec(1, 0, span=4), rec(2, 1, span=2), rec(3, 0, span=1),
            rec(4, 3, span=1),
        ))
        assert set(state.records) == {2, 3, 4}
        assert report.shadowed_dropped == 1
        assert state.coverage() == {0: 3, 1: 2, 2: 2, 3: 4}

    def test_checkpoint_plus_tail(self):
        j = MetadataJournal()
        j.append_insert(rec(2, 5))
        j.flush()
        state, report = self.scan(
            ckpt_records=(rec(1, 0),), journal=j, now=3.5,
        )
        assert set(state.records) == {1, 2}
        assert report.checkpoint_entries == 1
        assert state.next_seqno == 3

    def test_fingerprint_ignores_insertion_order(self):
        a = RecoveredState({1: rec(1, 0), 2: rec(2, 5)}, 3, BS)
        b = RecoveredState({2: rec(2, 5), 1: rec(1, 0)}, 3, BS)
        assert a.fingerprint() == b.fingerprint()
        c = RecoveredState({1: rec(1, 0)}, 3, BS)
        assert a.fingerprint() != c.fingerprint()

    def test_rebuild_is_deterministic(self):
        state = RecoveredState(
            {s: rec(s, s * 2, span=2, size=700 * s) for s in range(1, 9)},
            9, BS,
        )
        geo = x25e_like(64)
        one = state.rebuild(geometry=geo)
        two = state.rebuild(geometry=geo)
        assert one.digest() == two.digest()
        assert one.slot_mismatches == 0


class TestIntegrityTracker:
    def test_verify_against_rebuild(self):
        t = IntegrityTracker(BS)
        records = {1: rec(1, 0), 2: rec(2, 5)}
        for r in records.values():
            t.on_programmed(r)
        state = RecoveredState(records, 3, BS)
        rep = t.verify(state.rebuild(), records)
        assert rep.ok and rep.checked == 2

    def test_lost_durable_block_is_lost_acked(self):
        t = IntegrityTracker(BS)
        t.on_programmed(rec(1, 0))
        t.on_programmed(rec(2, 5))
        records = {2: rec(2, 5)}  # recovery lost seqno 1
        state = RecoveredState(records, 3, BS)
        rep = t.verify(state.rebuild(), records)
        assert rep.lost_acked == 1 and rep.lost_acked_blocks == [0]

    def test_volatile_window_is_separate(self):
        t = IntegrityTracker(BS)
        t.on_submitted(0, BS)  # in flight, never programmed
        t.on_programmed(rec(2, 5))
        volatile = t.volatile_blocks({9})  # plus one buffer-dirty block
        assert volatile == {0, 9}
        assert t.crash_reset() == {0}
        records = {2: rec(2, 5)}
        state = RecoveredState(records, 3, BS)
        rep = t.verify(state.rebuild(), records, volatile=volatile)
        assert rep.ok and rep.lost_volatile == 2

    def test_newer_generation_wins(self):
        t = IntegrityTracker(BS)
        t.on_programmed(rec(1, 0, run0=100))
        t.on_programmed(rec(3, 0, run0=200))
        records = {3: rec(3, 0, run0=200)}
        state = RecoveredState(records, 4, BS)
        assert t.verify(state.rebuild(), records).ok

    def test_crc_mismatch_is_corruption(self):
        good = dataclasses.replace(rec(1, 0), crc=(1234,))
        bad = dataclasses.replace(rec(1, 0), crc=(9999,))
        t = IntegrityTracker(BS)
        t.on_programmed(good)
        records = {1: bad}
        state = RecoveredState(records, 2, BS)
        rep = t.verify(state.rebuild(), records)
        assert rep.corrupt == 1 and not rep.ok


def managed_replay(duration=2.0, crc=False, **params):
    cfg = ReplayConfig(
        backend="ssd", device_config=EDCConfig(crc_checks=crc),
    )
    trace = make_workload("Fin1", duration=duration)
    manager = DurableMetadataManager(RecoveryParams(**params))
    result = replay(trace, "EDC", cfg, recovery=manager)
    return cfg, manager, result


class TestManagerEndToEnd:
    def test_scan_matches_oracle_after_clean_replay(self):
        cfg, manager, _ = managed_replay(checkpoint_interval_s=0.5)
        state, report = RecoveryScanner(
            manager.checkpoints, manager.journal, manager.oob, BS
        ).scan()
        oracle = RecoveredState(manager.live_records, manager.next_seqno, BS)
        assert state.fingerprint() == oracle.fingerprint()
        assert report.recovered_entries == len(manager.live_records)
        assert report.inconsistencies == 0

    def test_bind_refuses_an_array_backend(self):
        # Durable metadata seeds one SSD's OOB area and FTL; on an array
        # it would journal happily and recover nothing into the members.
        manager = DurableMetadataManager(RecoveryParams())
        with pytest.raises(ValueError, match="RAIS5"):
            replay(
                make_workload("Fin1", duration=0.5), "EDC",
                ReplayConfig(backend="rais5"), recovery=manager,
            )
        assert manager.device is None and manager.stats.meta_writes == 0

    def test_merged_runs_are_all_or_nothing(self):
        # Nothing about a multi-block extent becomes durable before its
        # program completes, so every durable record is whole: the spans
        # and run_ids in any scan are internally complete.
        _, manager, result = managed_replay(checkpoint_interval_s=0.5)
        assert result.merged_runs > 0
        for r in manager.live_records.values():
            assert len(r.run_ids) == r.span
            assert len(r.versions) == r.span

    def test_metadata_charge_shows_up_in_flash_traffic(self):
        # Journal flushes and checkpoint images are real in-band device
        # writes: the managed replay's FTL sees more host bytes than the
        # baseline — at least the charged metadata — so WA and the
        # energy model account for durability instead of getting it free.
        cfg = ReplayConfig(backend="ssd")
        trace = make_workload("Fin1", duration=2.0)
        captured = {}

        def grab(_sim, _device, backend, _devices):
            captured["ftl"] = backend.ftl

        replay(trace, "EDC", cfg, on_built=grab)
        base_host = captured["ftl"].stats.host_bytes
        manager = DurableMetadataManager(
            RecoveryParams(checkpoint_interval_s=0.5)
        )
        replay(trace, "EDC", cfg, recovery=manager, on_built=grab)
        managed_host = captured["ftl"].stats.host_bytes
        assert manager.stats.meta_write_bytes > 0
        assert manager.stats.meta_device_seconds > 0
        assert managed_host >= base_host + manager.stats.meta_write_bytes

    def test_no_recovery_replay_is_bit_identical_to_seed(self):
        cfg = ReplayConfig(backend="ssd")
        trace = make_workload("Fin1", duration=2.0)
        assert replay(trace, "EDC", cfg) == replay(
            trace, "EDC", cfg, recovery=None
        )

    def test_managed_replay_results_stay_close_to_baseline(self):
        # The in-band metadata traffic perturbs latency/WA only within
        # the regression-gate tolerances; the content-derived results
        # (compression ratio, merges) are exactly unchanged.
        cfg = ReplayConfig(backend="ssd")
        trace = make_workload("Fin1", duration=2.0)
        base = replay(trace, "EDC", cfg)
        managed = replay(
            trace, "EDC", cfg,
            recovery=DurableMetadataManager(
                RecoveryParams(checkpoint_interval_s=0.5)
            ),
        )
        assert managed.compression_ratio == base.compression_ratio
        assert managed.merged_runs == base.merged_runs
        assert managed.mean_response <= base.mean_response * 1.10
        assert managed.write_amplification <= base.write_amplification * 1.10

    def test_crc_checks_store_and_verify(self):
        cfg, manager, _ = managed_replay(crc=True, checkpoint_interval_s=0.5)
        recs = list(manager.live_records.values())
        assert recs and all(r.crc is not None for r in recs)
        from repro.sdgen.datasets import ENTERPRISE_MIX
        from repro.sdgen.generator import ContentStore

        content = ContentStore(
            ENTERPRISE_MIX, block_size=BS,
            pool_blocks=cfg.pool_blocks, seed=cfg.content_seed,
        )
        state, _ = RecoveryScanner(
            manager.checkpoints, manager.journal, manager.oob, BS
        ).scan()
        scrub = state.scrub(content)
        assert scrub.mismatches == 0
        assert scrub.checked_blocks > 0

    def test_read_path_detects_crc_mismatch(self):
        from repro.core.device import IntegrityError
        from repro.sim.engine import Simulator
        from repro.sdgen.generator import ContentStore
        from repro.bench.schemes import build_device
        from repro.flash.ssd import SimulatedSSD
        from repro.sdgen.datasets import ENTERPRISE_MIX
        from repro.traces.model import IORequest, READ, WRITE

        sim = Simulator()
        ssd = SimulatedSSD(sim, geometry=x25e_like(64))
        content = ContentStore(ENTERPRISE_MIX, block_size=BS, pool_blocks=64)
        device = build_device(
            sim, "EDC", ssd, content, config=EDCConfig(crc_checks=True),
        )
        device.submit(IORequest(0.0, WRITE, 0, BS))
        sim.run()
        device.flush()
        sim.run()
        # Corrupt the stored CRC of the extent covering block 0.
        eid, entry = device.mapping.lookup(0)
        device.mapping._entries[eid] = dataclasses.replace(
            entry, crc=tuple(c ^ 0xFFFF for c in entry.crc)
        )
        with pytest.raises(IntegrityError):
            device.submit(IORequest(sim.now, READ, 0, BS))
            sim.run()

    def test_block_crcs_slices_per_block(self):
        data = bytes(range(256)) * 32  # two 4 KiB blocks
        crcs = block_crcs(data, BS)
        assert len(crcs) == 2
        assert crcs[0] == crcs[1]  # identical halves
        assert block_crcs(data[:BS], BS) == (crcs[0],)


class TestVictimInheritance:
    def test_dropped_pending_victims_are_inherited(self):
        # A programmed extent A is shadowed by pending B; before B
        # programs, C shadows B.  B never becomes durable — but A's
        # reclaim must ride with C, or A leaks in _live/checkpoints.
        from repro.flash.mapping import MappingEntry
        from repro.flash.ssd import SimulatedSSD
        from repro.sim.engine import Simulator

        class _Sim:
            now = 0.0

            def every(self, *a, **k):
                class _H:
                    def cancel(self):
                        pass
                return _H()

        class _Distributer:
            def write(self, *a, **k):
                pass

        class _Dev:
            sim = _Sim()
            backend = SimulatedSSD(Simulator())
            distributer = _Distributer()

        m = DurableMetadataManager()
        m.bind_device(_Dev())

        def entry(lba):
            return MappingEntry(
                lba=lba, size=512, tag=1, span=1, original_size=BS
            )

        m.on_insert(10, entry(0), (1,), "lzf", (1,), (), BS)
        m.on_programmed(10)  # A durable
        m.on_insert(11, entry(0), (2,), "lzf", (2,), (10,), BS)  # B shadows A
        m.on_insert(12, entry(0), (3,), "lzf", (3,), (11,), BS)  # C drops B
        m.on_programmed(12)
        assert m.stats.dropped_unprogrammed == 1
        # A (seqno 1) was reclaimed by C's program, not leaked.
        assert set(r.seqno for r in m.live_records.values()) == {3}
        m.journal.flush()
        reclaimed = {
            r.victim_seqno for r in m.journal.durable if r.kind == "reclaim"
        }
        assert 1 in reclaimed
