"""Durable-metadata manager: journaling + checkpoints on the write path.

:class:`DurableMetadataManager` subscribes to an
:class:`~repro.core.device.EDCBlockDevice` and makes its volatile
metadata (mapping table, allocator occupancy, content provenance)
crash-recoverable:

- at mapping-insert time each new entry gets a monotone **seqno**;
- at **program completion** (the extent's device write finished) the
  entry's :class:`~repro.recovery.formats.ExtentRecord` is appended to
  the write-ahead journal together with ``reclaim`` records for the
  entries it fully shadowed, and the per-extent OOB back-pointer is
  written.  A crash mid-program therefore leaves *nothing* durable —
  merged runs recover all-or-nothing;
- OOB records of reclaimed extents are discarded only once the
  matching ``reclaim`` journal record is itself durable, so a lost
  journal tail can never orphan a block that older metadata still
  covers;
- a periodic simulation event takes a checkpoint (full live-record
  snapshot), truncates the journal and trims the dead metadata
  extents.

All metadata writes (journal flush padding, checkpoint images) are
charged **in-band** through the device's request distributer under
reserved ``("meta", …)`` keys: they consume flash service time, FTL
space and GC work, so the overhead is visible in write amplification
and the energy model instead of free.

The manager's live-record map is also the **crash-free oracle**: after
any power cut, the :class:`~repro.recovery.scanner.RecoveryScanner`'s
output must fingerprint-identically match it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.flash.ssd import SimulatedSSD
from repro.recovery.checkpoint import CheckpointImage, CheckpointStore
from repro.recovery.formats import ExtentRecord, JournalRecord
from repro.recovery.journal import MetadataJournal
from repro.recovery.oob import OOBArea

__all__ = ["RecoveryParams", "MetaStats", "DurableMetadataManager"]


@dataclass(frozen=True)
class RecoveryParams:
    """Tunables of the durable-metadata machinery."""

    #: seconds between periodic checkpoints (daemon simulation event)
    checkpoint_interval_s: float = 2.0

    def __post_init__(self) -> None:
        if self.checkpoint_interval_s <= 0:
            raise ValueError("checkpoint_interval_s must be positive")


@dataclass
class MetaStats:
    """What durable metadata cost the device."""

    journal_write_bytes: int = 0
    checkpoint_write_bytes: int = 0
    meta_writes: int = 0
    #: estimated device-occupancy seconds spent programming metadata
    meta_device_seconds: float = 0.0
    #: inserts whose extent was shadowed before its program completed
    #: (never became durable; the shadower covers the range)
    dropped_unprogrammed: int = 0

    @property
    def meta_write_bytes(self) -> int:
        return self.journal_write_bytes + self.checkpoint_write_bytes


class DurableMetadataManager:
    """Keeps one device's mapping metadata crash-consistent."""

    def __init__(
        self,
        params: Optional[RecoveryParams] = None,
        journal: Optional[MetadataJournal] = None,
        checkpoints: Optional[CheckpointStore] = None,
        oob: Optional[OOBArea] = None,
    ) -> None:
        self.params = params if params is not None else RecoveryParams()
        self.journal = journal if journal is not None else MetadataJournal()
        self.journal.charge = self._charge_journal
        self.checkpoints = (
            checkpoints if checkpoints is not None else CheckpointStore()
        )
        self.checkpoints.charge = self._charge_checkpoint
        self.oob = oob if oob is not None else OOBArea()
        self.stats = MetaStats()

        self.device = None
        self._next_seqno = 1
        #: seqno -> programmed, unreclaimed record (the crash-free oracle)
        self._live: Dict[int, ExtentRecord] = {}
        self._seqno_of_eid: Dict[int, int] = {}
        self._eid_of_seqno: Dict[int, int] = {}
        #: eid -> (record, victim seqnos) inserted but not yet programmed
        self._pending: Dict[int, Tuple[ExtentRecord, Tuple[int, ...]]] = {}
        #: victim seqnos whose reclaim record is not yet durable — their
        #: OOB back-pointers must survive until it is
        self._reclaim_keys: Dict[int, Hashable] = {}
        self._periodic = None
        self._meta_counter = 0
        self._journal_seg_keys: List[Hashable] = []
        self._ckpt_keys: List[Hashable] = []
        self._activity = 0
        self._ckpt_activity = -1
        #: optional observer called with each newly programmed record
        #: (the chaos harness's integrity tracker subscribes here)
        self.on_programmed_hook: Optional[Callable[[ExtentRecord], None]] = None
        #: report of the last recovery that produced this manager's
        #: state (installed by the crash harness; feeds recovery.* metrics)
        self.last_recovery = None

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind_device(self, device) -> None:
        """Attach to a built device and start the checkpoint cadence.

        Durable metadata lives on one SSD (its OOB area and FTL are
        what :meth:`install` seeds), so any other backend is refused.
        """
        if not isinstance(device.backend, SimulatedSSD):
            raise ValueError(
                "durable metadata needs a single-SSD backend, not "
                f"{type(device.backend).__name__}"
            )
        self.device = device
        device.recovery = self
        self._periodic = device.sim.every(
            self.params.checkpoint_interval_s, self.take_checkpoint
        )

    def detach(self) -> None:
        if self._periodic is not None:
            self._periodic.cancel()
            self._periodic = None

    # ------------------------------------------------------------------
    # oracle / state queries
    # ------------------------------------------------------------------
    @property
    def next_seqno(self) -> int:
        return self._next_seqno

    @property
    def live_records(self) -> Dict[int, ExtentRecord]:
        """Programmed, unreclaimed records by seqno (crash-free oracle)."""
        return dict(self._live)

    @property
    def meta_extent_keys(self) -> Tuple[Hashable, ...]:
        """Backend keys of the live in-band metadata extents: journal
        segments not yet checkpointed, then the retained checkpoints."""
        return (*self._journal_seg_keys, *self._ckpt_keys)

    @property
    def checkpoint_staleness_s(self) -> float:
        if self.device is None:
            return 0.0
        return self.device.sim.now - self.checkpoints.last_taken_at

    # ------------------------------------------------------------------
    # device write-path hooks
    # ------------------------------------------------------------------
    def on_insert(
        self,
        eid: int,
        entry,
        run_ids: Tuple[int, ...],
        codec_name: str,
        versions: Tuple[int, ...],
        shadowed_ids: Tuple[int, ...],
        slot_bytes: int,
    ) -> int:
        """A mapping entry was inserted; its program is now in flight."""
        seqno = self._next_seqno
        self._next_seqno += 1
        record = ExtentRecord(
            seqno=seqno,
            lba=entry.lba,
            span=entry.span,
            tag=entry.tag,
            size=entry.size,
            original_size=entry.original_size,
            versions=tuple(versions),
            run_ids=tuple(run_ids),
            codec_name=codec_name,
            slot_bytes=slot_bytes,
            crc=entry.crc,
        )
        victims: List[int] = []
        for old_eid in shadowed_ids:
            vs = self._seqno_of_eid.pop(old_eid, None)
            if vs is None:
                continue
            self._eid_of_seqno.pop(vs, None)
            dropped = self._pending.pop(old_eid, None)
            if dropped is not None:
                # Shadowed before its own program completed: it never
                # becomes durable and needs no reclaim record — but the
                # *programmed* entries it was about to reclaim are now
                # covered by this entry instead, so this entry inherits
                # them (their ``_reclaim_keys`` registration stands).
                # Dropping them here would leak them in ``_live`` and in
                # every checkpoint image forever.
                self.stats.dropped_unprogrammed += 1
                victims.extend(dropped[1])
                continue
            victims.append(vs)
            self._reclaim_keys[vs] = old_eid
        self._pending[eid] = (record, tuple(victims))
        self._seqno_of_eid[eid] = seqno
        self._eid_of_seqno[seqno] = eid
        return seqno

    def on_programmed(self, eid: int) -> None:
        """The extent's device write completed: make its metadata durable."""
        info = self._pending.pop(eid, None)
        if info is None:
            return
        record, victim_seqnos = info
        self._live[record.seqno] = record
        self.oob.program(eid, record)
        self.journal.append_insert(record)
        for vs in victim_seqnos:
            self._live.pop(vs, None)
            self.journal.append_reclaim(vs)
        self._sync_reclaimed_oob()
        self._activity += 1
        if self.on_programmed_hook is not None:
            self.on_programmed_hook(record)

    def _sync_reclaimed_oob(self) -> None:
        """Discard OOB back-pointers whose reclaim record is now durable."""
        if not self._reclaim_keys:
            return
        durable = {
            r.victim_seqno for r in self.journal.durable if r.kind == "reclaim"
        }
        for vs in [v for v in self._reclaim_keys if v in durable]:
            self.oob.discard(self._reclaim_keys.pop(vs))

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def take_checkpoint(self, force: bool = False) -> Optional[CheckpointImage]:
        """Snapshot the live records; truncate the journal behind it."""
        if self.device is None:
            raise RuntimeError("bind_device() before take_checkpoint()")
        if not force and self._activity == self._ckpt_activity:
            return None
        self.journal.flush()
        self._sync_reclaimed_oob()
        image = CheckpointImage(
            seq=self.checkpoints.stats.checkpoints + 1,
            taken_at=self.device.sim.now,
            next_seqno=self._next_seqno,
            upto_pos=self.journal.next_pos,
            records=tuple(
                sorted(self._live.values(), key=lambda r: r.seqno)
            ),
        )
        self.checkpoints.write(image)
        self.journal.truncate(image.upto_pos)
        self._ckpt_activity = self._activity
        # The checkpointed journal segments and the pre-previous image
        # are dead metadata: reclaim their in-band extents.
        if self.device is not None:
            for key in self._journal_seg_keys:
                self.device.distributer.trim(key)
            self._journal_seg_keys = []
            while len(self._ckpt_keys) > 2:
                self.device.distributer.trim(self._ckpt_keys.pop(0))
        return image

    # ------------------------------------------------------------------
    # in-band charging
    # ------------------------------------------------------------------
    def _charge_journal(self, nbytes: int) -> None:
        self.stats.journal_write_bytes += nbytes
        key = self._issue_meta_write(nbytes, "journal")
        if key is not None:
            self._journal_seg_keys.append(key)

    def _charge_checkpoint(self, nbytes: int) -> None:
        self.stats.checkpoint_write_bytes += nbytes
        key = self._issue_meta_write(nbytes, "ckpt")
        if key is not None:
            self._ckpt_keys.append(key)

    def _issue_meta_write(self, nbytes: int, kind: str) -> Optional[Hashable]:
        self.stats.meta_writes += 1
        if self.device is None:
            return None
        self._meta_counter += 1
        key = ("meta", kind, self._meta_counter)
        self.stats.meta_device_seconds += (
            self.device.backend.service_write_time(nbytes)
        )
        self.device.distributer.write(key, 0, nbytes, on_complete=None)
        return key

    # ------------------------------------------------------------------
    # post-recovery install
    # ------------------------------------------------------------------
    def install(self, state) -> None:
        """Seed a freshly built device with a recovered state.

        Replays the recovered records (seqno order) into the device's
        mapping table, allocator, FTL and read-path metadata, then
        zeroes the seeding cost out of the device counters — recovery
        reconstruction is not host traffic.  The durable artifacts this
        manager was constructed with (checkpoints/journal/OOB) are
        reconciled: OOB records are re-keyed to the new entry ids and
        stale back-pointers of overlay-dropped extents are discarded.
        """
        if self.device is None:
            raise RuntimeError("bind_device() before install()")
        device = self.device
        backend = device.backend
        fresh_oob = OOBArea()
        fresh_oob.stats = self.oob.stats
        for rec in sorted(state.records.values(), key=lambda r: r.seqno):
            eid, cls, _shadowed = device.install_extent(
                rec_to_entry(rec), rec.run_ids, rec.codec_name
            )
            if cls.nbytes != rec.slot_bytes:
                raise RuntimeError(
                    f"recovered slot class {cls.nbytes} != durable "
                    f"{rec.slot_bytes} for seqno {rec.seqno}"
                )
            backend.ftl.write(eid, rec.slot_bytes)
            start_blk = rec.lba // device.config.block_size
            for i, version in enumerate(rec.versions):
                device.set_version_floor(start_blk + i, version)
            self._live[rec.seqno] = rec
            self._seqno_of_eid[eid] = rec.seqno
            self._eid_of_seqno[rec.seqno] = eid
            fresh_oob.program(eid, rec)
        self.oob = fresh_oob
        # Seeding is reconstruction, not host traffic: reset the
        # write/GC accounting the reports read.
        backend.ftl.stats = type(backend.ftl.stats)()
        self._next_seqno = max(self._next_seqno, state.next_seqno)
        self._activity += 1


def rec_to_entry(rec: ExtentRecord):
    """The :class:`~repro.flash.mapping.MappingEntry` a record describes."""
    from repro.flash.mapping import MappingEntry

    return MappingEntry(
        lba=rec.lba,
        size=rec.size,
        tag=rec.tag,
        span=rec.span,
        original_size=rec.original_size,
        crc=rec.crc,
    )
