"""The Sequentiality Detector (paper §III-E, Fig 7).

Write requests arrive in bursts and are often address-contiguous.
Compressing each 4 KB block on arrival forfeits the better ratio (and
amortised codec setup) of compressing a larger merged block.  The SD
therefore holds the current run of contiguous writes open and merges
arrivals into it; the run is flushed for compression when:

- a read request arrives (reads break write contiguity — Fig 7 step 4's
  dual: the paper flushes on reads and non-contiguous writes);
- a non-contiguous write arrives (the new write starts a fresh run);
- the run reaches ``max_merge_blocks``; or
- the caller's safety timeout fires (see
  :data:`repro.core.device.SD_FLUSH_TIMEOUT`).

The detector is pure bookkeeping — timing and compression are the
device's job — so it is directly testable against the paper's Fig 7
worked example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["SequentialityDetector", "PendingRun", "SDStats"]


@dataclass
class PendingRun:
    """A run of contiguous writes awaiting compression."""

    start_lba: int
    nbytes: int
    #: arrival time of each merged request, oldest first
    arrivals: List[float] = field(default_factory=list)
    #: caller-supplied handles (one per merged request), parallel to arrivals
    refs: List[object] = field(default_factory=list)
    #: event subscribers' per-run records, by subscriber role (``None``
    #: until one is attached: an unobserved run allocates nothing)
    notes: Optional[dict] = field(default=None, init=False)

    def note(self, role: str, record: object) -> None:
        """Attach a subscriber's record for the lifetime of this run."""
        if self.notes is None:
            self.notes = {}
        self.notes[role] = record

    @property
    def end(self) -> int:
        return self.start_lba + self.nbytes

    @property
    def n_merged(self) -> int:
        return len(self.arrivals)


@dataclass
class SDStats:
    writes_seen: int = 0
    merges: int = 0
    flushes_on_read: int = 0
    flushes_on_gap: int = 0
    flushes_on_limit: int = 0
    flushes_on_timeout: int = 0
    #: histogram: merged-run block count -> occurrences
    run_blocks: dict[int, int] = field(default_factory=dict)


class SequentialityDetector:
    """Merges contiguous writes into compression units (Fig 7 semantics)."""

    def __init__(self, block_size: int = 4096, max_merge_blocks: int = 16) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive: {block_size!r}")
        if max_merge_blocks < 1:
            raise ValueError(f"max_merge_blocks must be >= 1: {max_merge_blocks!r}")
        self.block_size = block_size
        self.max_merge_blocks = max_merge_blocks
        self._pending: Optional[PendingRun] = None
        self.stats = SDStats()

    # ------------------------------------------------------------------
    @property
    def pending(self) -> Optional[PendingRun]:
        return self._pending

    def _blocks(self, nbytes: int) -> int:
        return (nbytes + self.block_size - 1) // self.block_size

    def _note_flush(self, run: PendingRun) -> PendingRun:
        blocks = self._blocks(run.nbytes)
        self.stats.run_blocks[blocks] = self.stats.run_blocks.get(blocks, 0) + 1
        return run

    # ------------------------------------------------------------------
    def on_write(
        self, lba: int, nbytes: int, arrival: float, ref: object = None
    ) -> List[PendingRun]:
        """Feed one write; returns runs that must be compressed *now*.

        The fed write itself may be among them (when it alone fills the
        merge limit); otherwise it is held as the new/extended pending
        run.
        """
        if nbytes <= 0:
            raise ValueError(f"write size must be positive: {nbytes!r}")
        self.stats.writes_seen += 1
        flushed: List[PendingRun] = []
        p = self._pending
        if p is not None:
            fits = (
                lba == p.end
                and self._blocks(p.nbytes + nbytes) <= self.max_merge_blocks
            )
            if fits:
                p.nbytes += nbytes
                p.arrivals.append(arrival)
                p.refs.append(ref)
                self.stats.merges += 1
                if self._blocks(p.nbytes) >= self.max_merge_blocks:
                    self.stats.flushes_on_limit += 1
                    flushed.append(self._note_flush(p))
                    self._pending = None
                return flushed
            # Contiguity broken: the pending run compresses now.
            self.stats.flushes_on_gap += 1
            flushed.append(self._note_flush(p))
            self._pending = None
        run = PendingRun(lba, nbytes, [arrival], [ref])
        if self._blocks(nbytes) >= self.max_merge_blocks:
            self.stats.flushes_on_limit += 1
            flushed.append(self._note_flush(run))
        else:
            self._pending = run
        return flushed

    def on_read(self) -> List[PendingRun]:
        """A read arrived: flush the pending run (Fig 7 rule)."""
        if self._pending is None:
            return []
        self.stats.flushes_on_read += 1
        run = self._note_flush(self._pending)
        self._pending = None
        return [run]

    def flush_timeout(self) -> List[PendingRun]:
        """The safety timer fired: flush whatever is pending."""
        if self._pending is None:
            return []
        self.stats.flushes_on_timeout += 1
        run = self._note_flush(self._pending)
        self._pending = None
        return [run]

    def flush_all(self) -> List[PendingRun]:
        """End of stream: flush unconditionally (not counted as timeout)."""
        if self._pending is None:
            return []
        run = self._note_flush(self._pending)
        self._pending = None
        return [run]
