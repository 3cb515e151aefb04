"""Post-crash recovery scan: checkpoint + journal tail + OOB sweep.

The :class:`RecoveryScanner` rebuilds the device's metadata from what a
power cut left durable:

1. load the latest **checkpoint image** (full live-record snapshot);
2. replay the **durable journal records** past the checkpoint's
   position watermark — ``insert`` adds a record, ``reclaim`` removes
   its victim;
3. sweep the **OOB back-pointers** and add any record whose seqno the
   journal never made durable (its insert was in the lost volatile
   tail);
4. resolve overlays **newest-seqno-wins**: candidate records are laid
   down in seqno order and any record left covering zero blocks is
   dropped — exactly the runtime shadowing semantics, so a reclaim
   record lost with the journal tail cannot resurrect a fully-shadowed
   extent.

The result is a :class:`RecoveredState`: the live record set plus the
seqno watermark.  It can :meth:`~RecoveredState.rebuild` fresh mapping
/allocator/FTL structures (deterministically — two rebuilds of the same
state are bit-identical), :meth:`~RecoveredState.fingerprint` itself
for comparison against the crash-free oracle, and
:meth:`~RecoveredState.scrub` every record's per-block CRCs against the
content store.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.formats import ExtentRecord, block_crcs
from repro.recovery.journal import MetadataJournal
from repro.recovery.oob import OOBArea

__all__ = [
    "RecoveryScanner",
    "RecoveredState",
    "RebuiltState",
    "RecoveryReport",
    "ScrubReport",
    "metadata_digest",
]


def metadata_digest(mapping, allocator, ftl=None) -> str:
    """Order-independent sha256 of a device's metadata state."""
    h = hashlib.sha256()
    h.update(mapping.state_digest().encode())
    h.update(allocator.state_digest().encode())
    if ftl is not None:
        h.update(ftl.validity_digest().encode())
    return h.hexdigest()


@dataclass
class RecoveryReport:
    """What one recovery scan read and decided (feeds ``recovery.*``)."""

    checkpoint_entries: int = 0
    #: seconds between the checkpoint and the crash instant
    checkpoint_staleness_s: float = 0.0
    #: durable journal records replayed past the checkpoint watermark
    journal_replay_len: int = 0
    reclaims_applied: int = 0
    #: extents recovered only via their OOB back-pointer (journal insert
    #: was still in the volatile tail when power was cut)
    oob_only_entries: int = 0
    #: OOB pages read by the full-device sweep
    scan_pages_read: int = 0
    #: candidates dropped by newest-seqno-wins overlay resolution
    shadowed_dropped: int = 0
    recovered_entries: int = 0
    recovered_blocks: int = 0
    #: OOB / journal disagreements about the same seqno (must be zero)
    inconsistencies: int = 0


@dataclass
class ScrubReport:
    """Post-recovery CRC scrub of every recovered record."""

    checked_blocks: int = 0
    #: records without stored CRCs (``crc_checks`` disabled at write time)
    unchecked_records: int = 0
    mismatches: int = 0


@dataclass
class RebuiltState:
    """Fresh metadata structures replayed from a :class:`RecoveredState`."""

    mapping: object
    allocator: object
    ftl: Optional[object]
    eid_of_seqno: Dict[int, int]
    seqno_of_eid: Dict[int, int]
    #: records whose recomputed size class differs from the durable one
    slot_mismatches: int = 0

    def digest(self) -> str:
        """Order-independent digest of the rebuilt metadata state."""
        return metadata_digest(self.mapping, self.allocator, self.ftl)


@dataclass
class RecoveredState:
    """The live extent records a recovery scan established."""

    records: Dict[int, ExtentRecord]
    next_seqno: int
    block_size: int

    def ordered(self) -> List[ExtentRecord]:
        return sorted(self.records.values(), key=lambda r: r.seqno)

    def coverage(self) -> Dict[int, int]:
        """Logical block number -> seqno of the newest covering record."""
        cover: Dict[int, int] = {}
        for rec in self.ordered():
            start = rec.lba // self.block_size
            for blk in range(start, start + rec.span):
                cover[blk] = rec.seqno
        return cover

    def fingerprint(self) -> str:
        """Stable content digest; equal states compare equal.

        The crash-free oracle (the manager's live-record map) and a
        recovered state must produce the same fingerprint — this is the
        acceptance check that recovery is lossless and exact.
        """
        h = hashlib.sha256()
        h.update(repr(self.block_size).encode())
        for rec in self.ordered():
            h.update(repr(rec.canonical()).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def rebuild(
        self,
        fractions=(0.25, 0.50, 0.75, 1.0),
        geometry=None,
    ) -> RebuiltState:
        """Replay the records into fresh mapping/allocator/FTL structures.

        Replay order is seqno order, exactly the order the originals
        were inserted, so two rebuilds of the same state — and a rebuild
        versus a recovered-and-installed device — are bit-identical.
        """
        from repro.flash.allocator import SizeClassAllocator
        from repro.flash.mapping import MappingTable
        from repro.recovery.durable import rec_to_entry

        mapping = MappingTable(self.block_size)
        allocator = SizeClassAllocator(self.block_size, fractions)
        ftl = None
        if geometry is not None:
            from repro.flash.ftl import ExtentFTL

            ftl = ExtentFTL(geometry)
        eid_of_seqno: Dict[int, int] = {}
        seqno_of_eid: Dict[int, int] = {}
        mismatches = 0
        for rec in self.ordered():
            eid, shadowed = mapping.insert(rec_to_entry(rec))
            for old_id, _old in shadowed:
                allocator.free(old_id)
                if ftl is not None:
                    ftl.trim(old_id)
                vs = seqno_of_eid.pop(old_id, None)
                if vs is not None:
                    eid_of_seqno.pop(vs, None)
            cls = allocator.allocate(eid, rec.size, rec.original_size)
            if cls.nbytes != rec.slot_bytes:
                mismatches += 1
            if ftl is not None:
                ftl.write(eid, rec.slot_bytes)
            eid_of_seqno[rec.seqno] = eid
            seqno_of_eid[eid] = rec.seqno
        return RebuiltState(
            mapping=mapping,
            allocator=allocator,
            ftl=ftl,
            eid_of_seqno=eid_of_seqno,
            seqno_of_eid=seqno_of_eid,
            slot_mismatches=mismatches,
        )

    # ------------------------------------------------------------------
    def scrub(self, content) -> ScrubReport:
        """Verify every record's per-block CRCs against the content store.

        A mismatch means the recovered metadata points a logical block
        at content that is not what the host wrote — the CORRUPTION
        verdict in the chaos report.
        """
        rep = ScrubReport()
        for rec in self.ordered():
            if rec.crc is None:
                rep.unchecked_records += 1
                continue
            data = content.data_for_run(rec.run_ids)
            actual = block_crcs(data, self.block_size)
            rep.checked_blocks += rec.span
            rep.mismatches += sum(
                1 for a, b in zip(actual, rec.crc) if a != b
            )
        return rep


class RecoveryScanner:
    """Rebuilds a :class:`RecoveredState` from the durable artifacts."""

    def __init__(
        self,
        checkpoints: CheckpointStore,
        journal: MetadataJournal,
        oob: OOBArea,
        block_size: int = 4096,
    ) -> None:
        self.checkpoints = checkpoints
        self.journal = journal
        self.oob = oob
        self.block_size = block_size

    def scan(self, now: float = 0.0) -> Tuple[RecoveredState, RecoveryReport]:
        """Run the three-source scan; ``now`` is the crash instant."""
        report = RecoveryReport()
        candidates: Dict[int, ExtentRecord] = {}
        next_seqno = 1

        # 1. checkpoint image
        image = self.checkpoints.latest()
        upto_pos = 0
        if image is not None:
            for rec in image.records:
                candidates[rec.seqno] = rec
            next_seqno = image.next_seqno
            upto_pos = image.upto_pos
            report.checkpoint_entries = len(image.records)
            report.checkpoint_staleness_s = max(0.0, now - image.taken_at)
        else:
            report.checkpoint_staleness_s = now

        # 2. durable journal replay past the checkpoint watermark
        replay = self.journal.replay_after(upto_pos)
        report.journal_replay_len = len(replay)
        for jr in replay:
            if jr.kind == "insert":
                rec = jr.extent
                assert rec is not None
                if rec.seqno in candidates and candidates[rec.seqno] != rec:
                    report.inconsistencies += 1
                candidates[rec.seqno] = rec
                next_seqno = max(next_seqno, rec.seqno + 1)
            else:
                if candidates.pop(jr.victim_seqno, None) is not None:
                    report.reclaims_applied += 1

        # 3. OOB sweep: recover inserts lost with the volatile tail
        before_pages = self.oob.stats.scan_pages_read
        for rec in self.oob.scan():
            report.scan_pages_read = (
                self.oob.stats.scan_pages_read - before_pages
            )
            if rec.seqno in candidates:
                if candidates[rec.seqno] != rec:
                    report.inconsistencies += 1
                continue
            candidates[rec.seqno] = rec
            report.oob_only_entries += 1
            next_seqno = max(next_seqno, rec.seqno + 1)
        report.scan_pages_read = self.oob.stats.scan_pages_read - before_pages

        # 4. overlay resolution, newest-seqno-wins
        cover: Dict[int, int] = {}
        for rec in sorted(candidates.values(), key=lambda r: r.seqno):
            start = rec.lba // self.block_size
            for blk in range(start, start + rec.span):
                cover[blk] = rec.seqno
        live_seqnos = set(cover.values())
        dropped = [s for s in candidates if s not in live_seqnos]
        report.shadowed_dropped = len(dropped)
        records = {s: r for s, r in candidates.items() if s in live_seqnos}

        report.recovered_entries = len(records)
        report.recovered_blocks = len(cover)
        state = RecoveredState(
            records=records,
            next_seqno=next_seqno,
            block_size=self.block_size,
        )
        return state, report
