"""End-to-end data-integrity bookkeeping across a power cut.

The chaos harness needs to answer, per logical block, *"should this
block have survived the crash — and did it?"*.  The
:class:`IntegrityTracker` keeps the ground truth on the side of the
simulation (never inside the device, so it cannot mask a recovery bug):

- :meth:`on_programmed` — wired to the durable-metadata manager's
  program hook — records the newest **durably programmed** content
  generation of every block: seqno, content run id and CRC;
- blocks that were accepted by the device but whose extent had not
  finished programming, plus blocks still dirty in the write-back
  buffer, are the **volatile window**: write-back semantics allow
  losing them (the host never got a durability guarantee);
- after recovery, :meth:`verify` walks the durable map and checks that
  the recovered mapping resolves every durably programmed block to the
  exact same generation.

The verdict classification follows:

- a durable block that is unmapped or resolves to a different
  generation → **lost_acked** (DATA-LOSS);
- a matching generation but a CRC mismatch → **corruption**;
- volatile-window blocks are reported separately as **lost_volatile**
  — lost *because the cache was volatile*, not because recovery broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.recovery.formats import ExtentRecord

__all__ = ["IntegrityTracker", "BlockTruth", "VerifyReport"]


@dataclass(frozen=True)
class BlockTruth:
    """Newest durably programmed generation of one logical block."""

    seqno: int
    run_id: int
    crc: Optional[int]


@dataclass
class VerifyReport:
    """Outcome of checking recovered metadata against the durable truth."""

    checked: int = 0
    #: durably programmed blocks the recovered mapping lost or regressed
    lost_acked: int = 0
    #: blocks only ever acked from the volatile window (allowed losses)
    lost_volatile: int = 0
    #: blocks resolving to the right generation but failing the CRC check
    corrupt: int = 0
    #: durable blocks resolving to a *newer* seqno than ever programmed —
    #: impossible unless the tracker or recovery invented history
    phantom: int = 0
    lost_acked_blocks: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.lost_acked == 0 and self.corrupt == 0 and self.phantom == 0


class IntegrityTracker:
    """Ground-truth durability map, maintained outside the device."""

    def __init__(self, block_size: int = 4096) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive: {block_size!r}")
        self.block_size = block_size
        self._durable: Dict[int, BlockTruth] = {}
        #: blocks accepted by the device whose program has not completed
        self._inflight: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # write-path wiring
    # ------------------------------------------------------------------
    def on_submitted(self, lba: int, nbytes: int) -> None:
        """A host write entered the device (post-buffer, pre-program)."""
        start = lba // self.block_size
        nblocks = max(1, (nbytes + self.block_size - 1) // self.block_size)
        for blk in range(start, start + nblocks):
            self._inflight[blk] = self._inflight.get(blk, 0) + 1

    def on_programmed(self, record: ExtentRecord) -> None:
        """An extent's program completed: its blocks are now durable."""
        start = record.lba // self.block_size
        for i in range(record.span):
            blk = start + i
            prev = self._durable.get(blk)
            if prev is None or record.seqno > prev.seqno:
                self._durable[blk] = BlockTruth(
                    seqno=record.seqno,
                    run_id=record.run_ids[i],
                    crc=record.crc[i] if record.crc is not None else None,
                )
            n = self._inflight.get(blk, 0)
            if n > 1:
                self._inflight[blk] = n - 1
            else:
                self._inflight.pop(blk, None)

    # ------------------------------------------------------------------
    # crash-time queries
    # ------------------------------------------------------------------
    def volatile_blocks(self, buffer_dirty: Set[int] = frozenset()) -> Set[int]:
        """Blocks in the volatile window at this instant.

        The union of blocks still dirty in the write-back buffer and
        blocks submitted to the device but not yet programmed.  Their
        *newest* generation is lost at a cut; if they were durably
        programmed before, that older generation must still be served.
        """
        return set(self._inflight) | set(buffer_dirty)

    def crash_reset(self) -> Set[int]:
        """The power cut happened: in-flight writes are gone for good.

        Returns the block numbers that were in flight (for the
        lost_volatile classification) and clears the in-flight set —
        the recovered device starts with no submissions outstanding.
        The durable map is untouched: it is exactly what recovery must
        reproduce.
        """
        lost = set(self._inflight)
        self._inflight.clear()
        return lost

    # ------------------------------------------------------------------
    # post-recovery verification
    # ------------------------------------------------------------------
    def verify(
        self,
        rebuilt,
        records_by_seqno: Dict[int, ExtentRecord],
        volatile: Set[int] = frozenset(),
    ) -> VerifyReport:
        """Check recovered metadata against the durable ground truth.

        ``rebuilt`` is a :class:`~repro.recovery.scanner.RebuiltState`
        (its mapping + seqno indices); ``records_by_seqno`` the
        recovered records; ``volatile`` the volatile window snapshotted
        at the cut (used only for the lost_volatile count).
        """
        rep = VerifyReport()
        rep.lost_volatile = len(set(volatile) - set(self._durable))
        for blk, truth in sorted(self._durable.items()):
            rep.checked += 1
            hit = rebuilt.mapping.lookup(blk * self.block_size)
            if hit is None:
                rep.lost_acked += 1
                rep.lost_acked_blocks.append(blk)
                continue
            eid, _entry = hit
            seqno = rebuilt.seqno_of_eid.get(eid)
            rec = records_by_seqno.get(seqno) if seqno is not None else None
            if rec is None or seqno < truth.seqno:
                rep.lost_acked += 1
                rep.lost_acked_blocks.append(blk)
                continue
            if seqno > truth.seqno:
                # Newer than anything ever programmed: invented history.
                rep.phantom += 1
                continue
            i = blk - rec.lba // self.block_size
            if not 0 <= i < rec.span:
                rep.lost_acked += 1
                rep.lost_acked_blocks.append(blk)
                continue
            if rec.run_ids[i] != truth.run_id:
                rep.lost_acked += 1
                rep.lost_acked_blocks.append(blk)
                continue
            if (
                truth.crc is not None
                and rec.crc is not None
                and rec.crc[i] != truth.crc
            ):
                rep.corrupt += 1
        return rep
