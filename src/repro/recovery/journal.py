"""Write-ahead metadata journal with a volatile append tail.

Journal appends first land in a DRAM tail buffer (``pending``); the
buffer flushes to the simulated flash — becoming crash-durable — when
it passes :data:`JOURNAL_FLUSH_BYTES` or when a checkpoint forces it.  A power cut
loses whatever is still in the tail; the
:class:`~repro.recovery.scanner.RecoveryScanner` falls back to the OOB
scan for extents whose insert record was lost that way.

Every flush is charged to the device through the ``charge`` callback
(padded to :data:`JOURNAL_PAD_BYTES`, modelling the program granularity
of the metadata area), so journaling is visible in write amplification and
the energy model instead of free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.recovery.formats import ExtentRecord, JournalRecord

__all__ = ["MetadataJournal", "JournalStats"]

#: the volatile tail flushes to flash once this many bytes are buffered
JOURNAL_FLUSH_BYTES = 512
#: program granularity of the metadata area: flushes pad to a multiple
JOURNAL_PAD_BYTES = 64


@dataclass
class JournalStats:
    #: records destroyed in the volatile tail by power cuts
    lost_tail_records: int = 0


class MetadataJournal:
    """Append-only journal of mapping deltas with explicit durability."""

    def __init__(self, charge: Optional[Callable[[int], None]] = None) -> None:
        self.charge = charge
        self.stats = JournalStats()
        #: durable (flushed) records in append order
        self.durable: List[JournalRecord] = []
        self._pending: List[JournalRecord] = []
        self._pending_bytes = 0
        self._next_pos = 0

    # ------------------------------------------------------------------
    @property
    def pending_records(self) -> int:
        """Records still in the volatile tail (lost on power cut)."""
        return len(self._pending)

    @property
    def durable_records(self) -> int:
        return len(self.durable)

    @property
    def next_pos(self) -> int:
        """Append position the next record will get."""
        return self._next_pos

    # ------------------------------------------------------------------
    def append_insert(self, extent: ExtentRecord) -> JournalRecord:
        rec = JournalRecord(pos=self._next_pos, kind="insert", extent=extent)
        self._append(rec)
        return rec

    def append_reclaim(self, victim_seqno: int) -> JournalRecord:
        rec = JournalRecord(
            pos=self._next_pos, kind="reclaim", victim_seqno=victim_seqno
        )
        self._append(rec)
        return rec

    def _append(self, rec: JournalRecord) -> None:
        self._next_pos += 1
        self._pending.append(rec)
        self._pending_bytes += rec.nbytes
        if self._pending_bytes >= JOURNAL_FLUSH_BYTES:
            self.flush()

    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Make the volatile tail durable; returns bytes charged."""
        if not self._pending:
            return 0
        nbytes = self._pending_bytes
        pad = JOURNAL_PAD_BYTES
        padded = (nbytes + pad - 1) // pad * pad
        self.durable.extend(self._pending)
        self._pending = []
        self._pending_bytes = 0
        if self.charge is not None:
            self.charge(padded)
        return padded

    def lose_volatile_tail(self) -> int:
        """Power cut: destroy the un-flushed tail; returns records lost.

        Called by the crash harness at the cut instant.  The lost
        inserts are recoverable from the OOB scan; lost reclaims are
        harmless because their victims are fully covered by newer
        durable (or OOB-visible) entries.
        """
        lost = len(self._pending)
        self._pending = []
        self._pending_bytes = 0
        self.stats.lost_tail_records += lost
        return lost

    def truncate(self, upto_pos: int) -> int:
        """Drop durable records with ``pos < upto_pos`` (checkpointed).

        Returns the number of records dropped.  The volatile tail is
        never truncated — it has not been made durable yet.
        """
        before = len(self.durable)
        self.durable = [r for r in self.durable if r.pos >= upto_pos]
        return before - len(self.durable)

    # ------------------------------------------------------------------
    def replay_after(self, upto_pos: int) -> List[JournalRecord]:
        """Durable records a recovery must replay after a checkpoint."""
        return [r for r in self.durable if r.pos >= upto_pos]
