"""Per-page OOB back-pointers, programmed with the data.

Real NAND pages carry a small out-of-band area; log-structured FTLs
store a back-pointer there — ``(lba, span, tag, size, seqno)`` here —
so a full-device scan can rebuild the mapping without any other
metadata.  In this simulation one :class:`~repro.recovery.formats.ExtentRecord`
is recorded per stored extent at **program-completion** time, which
gives merged runs their all-or-nothing crash semantics for free: an
extent whose multi-block program was cut mid-way never wrote its OOB
record and is invisible to recovery.

Records are discarded only once the *reclaim* journal record naming
the extent is itself durable (see
:meth:`~repro.recovery.durable.DurableMetadataManager._sync_reclaimed_oob`):
discarding at trim time would lose the extent entirely if both its
insert record and its shadower were still volatile at the cut.  GC
relocation keeps the record — the back-pointer moves with the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List

from repro.recovery.formats import OOB_RECORD_BYTES, ExtentRecord

__all__ = ["OOBArea", "OOBStats"]


@dataclass
class OOBStats:
    scan_pages_read: int = 0


class OOBArea:
    """The device's out-of-band records, keyed by extent key."""

    def __init__(self) -> None:
        self._records: Dict[Hashable, ExtentRecord] = {}
        self.stats = OOBStats()

    def program(self, key: Hashable, record: ExtentRecord) -> None:
        """Write the back-pointer for ``key`` (at program completion)."""
        self._records[key] = record

    def discard(self, key: Hashable) -> bool:
        """Drop the record once the extent's reclaim is durable."""
        return self._records.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._records

    def records(self) -> Iterator[ExtentRecord]:
        return iter(self._records.values())

    # ------------------------------------------------------------------
    def scan(self) -> List[ExtentRecord]:
        """Full-device OOB scan: every live back-pointer, seqno order.

        Charges one page read per record into :attr:`stats` — the cost a
        recovery pays to read each extent's first page OOB area.
        """
        self.stats.scan_pages_read += len(self._records)
        return sorted(self._records.values(), key=lambda r: r.seqno)

    @property
    def metadata_bytes(self) -> int:
        return len(self._records) * OOB_RECORD_BYTES
