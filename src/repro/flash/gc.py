"""Garbage collection for the log-structured FTL.

Flash blocks must be erased before rewrite (paper §II-A); out-of-place
updates leave stale data behind, and the collector reclaims it.  The
greedy policy — always collect the block with the least valid data —
minimises relocation work and is the standard baseline in FTL studies.

Write amplification bookkeeping lives here because GC is its only source
in this model: ``WA = (host bytes + relocated bytes) / host bytes``.
Compression lowers host bytes *and* the rate at which blocks fill,
which is the reliability benefit the paper claims (§III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

__all__ = ["GreedyCollector", "GcStats"]


@dataclass
class GcStats:
    """Cumulative garbage-collection accounting."""

    collections: int = 0
    erases: int = 0
    moved_bytes: int = 0
    reclaimed_bytes: int = 0
    #: erase counts per block id, for wear levelling statistics
    erase_counts: dict[int, int] = field(default_factory=dict)
    #: blocks removed from service, with the erase count they died at;
    #: kept out of ``erase_counts`` so wear levelling and lifetime
    #: projections only consider blocks still doing work
    retired_counts: dict[int, int] = field(default_factory=dict)
    #: erase count -> blocks in ``erase_counts`` at that count, kept by
    #: the two writers below so a SMART page reads wear in O(distinct
    #: counts) instead of walking every block
    erase_histogram: dict[int, int] = field(default_factory=dict)

    def note_erase(self, block_id: int) -> None:
        self.erases += 1
        n = self.erase_counts.get(block_id, 0)
        self.erase_counts[block_id] = n + 1
        if n:
            self._unbucket(n)
        self.erase_histogram[n + 1] = self.erase_histogram.get(n + 1, 0) + 1

    def note_retirement(self, block_id: int) -> None:
        """Move a bad block's wear history out of the active statistics."""
        n = self.retired_counts[block_id] = self.erase_counts.pop(block_id, 0)
        if n:
            self._unbucket(n)

    def _unbucket(self, n: int) -> None:
        left = self.erase_histogram[n] - 1
        if left:
            self.erase_histogram[n] = left
        else:
            del self.erase_histogram[n]

    @property
    def max_erase_count(self) -> int:
        return max(self.erase_histogram, default=0)

    @property
    def retired_blocks(self) -> int:
        return len(self.retired_counts)

    def snapshot(self) -> dict[str, float]:
        """Flat scalar view for telemetry/metrics export."""
        return {
            "collections": float(self.collections),
            "erases": float(self.erases),
            "moved_bytes": float(self.moved_bytes),
            "reclaimed_bytes": float(self.reclaimed_bytes),
            "max_erase_count": float(self.max_erase_count),
            "retired_blocks": float(self.retired_blocks),
        }


class GreedyCollector:
    """Selects the victim block with the fewest valid bytes."""

    def __init__(self) -> None:
        self.stats = GcStats()

    def select_victim(
        self,
        candidates: Iterable[int],
        valid_bytes: Sequence[int],
    ) -> Optional[int]:
        """Return the candidate block id with minimal valid bytes.

        ``None`` when there are no candidates.  Ties break toward the
        lowest block id for determinism.
        """
        best: Optional[int] = None
        best_valid = None
        for block_id in candidates:
            v = valid_bytes[block_id]
            if best_valid is None or v < best_valid or (v == best_valid and block_id < best):
                best = block_id
                best_valid = v
        return best

    def note_collection(self, block_id: int, moved: int, reclaimed: int) -> None:
        self.stats.collections += 1
        self.stats.moved_bytes += moved
        self.stats.reclaimed_bytes += reclaimed
        self.stats.note_erase(block_id)

