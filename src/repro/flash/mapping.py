"""The compressed-block mapping table (paper Fig 5).

Each stored unit is described by three fields: **LBA** (logical block
address of the start of the stored data), **Size** (compressed payload
size), and a 3-bit **Tag** naming the compression algorithm, with tag
``000`` meaning "not compressed".  The EDC read path consults this table
to know how many bytes to fetch and which decompressor to run.

A merged run produced by the Sequentiality Detector is a single entry
covering several logical blocks (``span`` > 1).  Because the FTL updates
out of place, overwriting *part* of a merged run does not rewrite the
run: the new entry overlays the old one, per-block resolution always
returns the newest covering entry, and the old entry's storage is
reclaimed once every block it covered has been overwritten — the same
overlay semantics used by compressed-extent filesystems.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.compression.codec import MAX_TAG

__all__ = ["MappingEntry", "MappingTable", "ENTRY_BYTES"]

#: Approximate on-flash metadata footprint of one entry: 8-byte LBA,
#: 2-byte size, 3-bit tag + span/flags packed into 2 bytes.
ENTRY_BYTES = 12


@dataclass(frozen=True, slots=True)
class MappingEntry:
    """One mapping record: where a logical unit's stored form lives."""

    lba: int
    size: int
    tag: int
    #: number of consecutive logical blocks covered (merged runs > 1)
    span: int = 1
    #: original (uncompressed) byte length represented by this entry
    original_size: int = 4096
    #: optional per-covered-block CRC32 of the *uncompressed* content,
    #: stored with the entry and verified on read / by the post-recovery
    #: scrub (``EDCConfig.crc_checks``); ``None`` keeps the entry at its
    #: paper-sized 12-byte footprint
    crc: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.lba < 0:
            raise ValueError(f"negative LBA: {self.lba!r}")
        if self.size < 0:
            raise ValueError(f"negative size: {self.size!r}")
        if not 0 <= self.tag <= MAX_TAG:
            raise ValueError(f"tag {self.tag!r} does not fit in 3 bits")
        if self.span < 1:
            raise ValueError(f"span must be >= 1: {self.span!r}")
        if self.original_size <= 0:
            raise ValueError(f"original_size must be positive: {self.original_size!r}")
        if self.crc is not None and len(self.crc) != self.span:
            raise ValueError(
                f"crc needs one value per covered block "
                f"(span {self.span}, got {len(self.crc)})"
            )

    @property
    def is_compressed(self) -> bool:
        return self.tag != 0


class MappingTable:
    """Logical block → newest covering :class:`MappingEntry`.

    Entries carry unique integer ids (returned by :meth:`insert`) that
    callers use to key storage-allocator slots and backend extents.
    """

    def __init__(self, block_size: int = 4096) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive: {block_size!r}")
        self.block_size = block_size
        self._ids = itertools.count(1)
        self._entries: Dict[int, MappingEntry] = {}
        #: covered block number -> id of the newest entry covering it
        self._cover: Dict[int, int] = {}
        #: entry id -> number of blocks still resolving to it
        self._coverage: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def block_of(self, lba: int) -> int:
        return lba // self.block_size

    def insert(self, entry: MappingEntry) -> Tuple[int, List[Tuple[int, MappingEntry]]]:
        """Insert ``entry`` as the newest cover of its block range.

        Returns ``(entry_id, fully_shadowed)`` where ``fully_shadowed``
        lists ``(id, entry)`` pairs whose storage can now be reclaimed
        because no block resolves to them any more.
        """
        eid = next(self._ids)
        start = self.block_of(entry.lba)
        shadowed: List[Tuple[int, MappingEntry]] = []
        for blk in range(start, start + entry.span):
            old = self._cover.get(blk)
            if old is not None:
                self._coverage[old] -= 1
                if self._coverage[old] == 0:
                    shadowed.append((old, self._entries.pop(old)))
                    del self._coverage[old]
            self._cover[blk] = eid
        self._entries[eid] = entry
        self._coverage[eid] = entry.span
        return eid, shadowed

    def lookup(self, lba: int) -> Optional[Tuple[int, MappingEntry]]:
        """Newest ``(id, entry)`` covering ``lba``, or ``None``."""
        eid = self._cover.get(self.block_of(lba))
        if eid is None:
            return None
        return eid, self._entries[eid]

    def get(self, entry_id: int) -> Optional[MappingEntry]:
        return self._entries.get(entry_id)

    def remove(self, lba: int) -> List[Tuple[int, MappingEntry]]:
        """Un-cover the single block at ``lba`` (trim).

        Returns fully shadowed entries whose storage is now reclaimable.
        """
        blk = self.block_of(lba)
        eid = self._cover.pop(blk, None)
        if eid is None:
            return []
        self._coverage[eid] -= 1
        if self._coverage[eid] == 0:
            entry = self._entries.pop(eid)
            del self._coverage[eid]
            return [(eid, entry)]
        return []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MappingEntry]:
        return iter(self._entries.values())

    def entry_ids(self) -> Iterator[int]:
        return iter(self._entries.keys())

    def covered_blocks(self) -> int:
        return len(self._cover)

    def live_fraction(self, entry_id: int) -> float:
        """Fraction of an entry's span still resolving to it."""
        entry = self._entries.get(entry_id)
        if entry is None:
            return 0.0
        return self._coverage[entry_id] / entry.span

    def covered_blocks_of(self, entry_id: int) -> List[int]:
        """Block numbers still resolving to ``entry_id`` (sorted).

        Scans the entry's span (not the whole index), so it is cheap per
        entry.
        """
        entry = self._entries.get(entry_id)
        if entry is None:
            return []
        start = self.block_of(entry.lba)
        return [
            blk
            for blk in range(start, start + entry.span)
            if self._cover.get(blk) == entry_id
        ]

    @property
    def metadata_bytes(self) -> int:
        """Approximate metadata footprint of the table."""
        return len(self._entries) * ENTRY_BYTES

    def state_digest(self) -> str:
        """Entry-id-independent digest of the logical mapping state.

        Two tables whose every covered block resolves to an identical
        entry (same placement fields, regardless of the internal ids)
        digest equally — the comparison crash recovery uses to prove a
        recovered table bit-identical to a from-scratch rebuild.
        """
        h = hashlib.sha256()
        for blk in sorted(self._cover):
            e = self._entries[self._cover[blk]]
            h.update(
                repr((blk, e.lba, e.size, e.tag, e.span,
                      e.original_size, e.crc)).encode()
            )
        return h.hexdigest()

    def check_invariants(self) -> None:
        """Consistency between the entry map and the coverage index."""
        counts: Dict[int, int] = {}
        for blk, eid in self._cover.items():
            entry = self._entries.get(eid)
            if entry is None:
                raise AssertionError(f"cover of block {blk} points at missing {eid}")
            start = self.block_of(entry.lba)
            if not start <= blk < start + entry.span:
                raise AssertionError(f"block {blk} outside span of entry {eid}")
            counts[eid] = counts.get(eid, 0) + 1
        for eid in self._entries:
            if counts.get(eid, 0) != self._coverage[eid]:
                raise AssertionError(
                    f"entry {eid}: coverage {self._coverage[eid]} != "
                    f"actual {counts.get(eid, 0)}"
                )
            if self._coverage[eid] == 0:
                raise AssertionError(f"entry {eid} should have been reclaimed")
