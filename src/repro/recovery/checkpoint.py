"""Periodic mapping-table checkpoints written as metadata pages.

A :class:`CheckpointImage` is a consistent snapshot of every
*programmed, unreclaimed* extent record plus two watermarks: the next
seqno to assign and the journal position the image covers (records
before it can be truncated).  Images are written through the same
in-band ``charge`` callback as journal flushes, so checkpoint bytes
show up in write amplification and energy accounting.

Only the latest durable image matters for recovery; the store keeps
the previous one until the new write is charged (a real device keeps
two checkpoint slots and alternates, so a crash mid-checkpoint falls
back to the older image — modelled by :meth:`CheckpointStore.latest`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.recovery.formats import (
    CHECKPOINT_ENTRY_BYTES,
    CHECKPOINT_HEADER_BYTES,
    ExtentRecord,
)

__all__ = ["CheckpointImage", "CheckpointStore", "CheckpointStats"]


@dataclass(frozen=True)
class CheckpointImage:
    """One durable snapshot of the live mapping metadata."""

    seq: int
    taken_at: float
    next_seqno: int
    upto_pos: int
    records: Tuple[ExtentRecord, ...]

    @property
    def nbytes(self) -> int:
        return CHECKPOINT_HEADER_BYTES + len(self.records) * CHECKPOINT_ENTRY_BYTES


@dataclass
class CheckpointStats:
    checkpoints: int = 0


class CheckpointStore:
    """Durable checkpoint slots (latest wins, previous kept as fallback)."""

    def __init__(self, charge: Optional[Callable[[int], None]] = None) -> None:
        self.charge = charge
        self.stats = CheckpointStats()
        self._images: List[CheckpointImage] = []

    def write(self, image: CheckpointImage) -> None:
        self._images.append(image)
        if len(self._images) > 2:
            # Two slots, alternating: the oldest is erased for reuse.
            self._images.pop(0)
        self.stats.checkpoints += 1
        if self.charge is not None:
            self.charge(image.nbytes)

    def latest(self) -> Optional[CheckpointImage]:
        return self._images[-1] if self._images else None

    @property
    def last_taken_at(self) -> float:
        img = self.latest()
        return img.taken_at if img is not None else 0.0
