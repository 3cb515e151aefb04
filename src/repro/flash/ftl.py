"""Byte-granular log-structured FTL with out-of-place updates.

The paper (§III-C) leans on the fact that "the flash translation layer
… uses an out-of-place update scheme": every write goes to a write
frontier and an overwrite merely invalidates the old copy.  With
compression in the stack, the natural mapping unit is a variable-size
*extent* (the stored form of one logical block or merged run), so this
FTL maps opaque extent keys to (block, length) rather than fixed pages.

Responsibilities:

- maintain the extent map and per-block valid-byte counts;
- fill blocks at one or more **write streams** (multi-stream / hot-cold
  separation: callers may direct writes with different lifetimes to
  different frontiers, which keeps same-temperature data together and
  cuts relocation work);
- relocate into a dedicated **GC frontier**, so collected cold data
  never mixes back into the host streams;
- invoke the :class:`~repro.flash.gc.GreedyCollector` when free blocks
  run low;
- account every byte written (host vs relocated) so write amplification
  and erase counts are observable.

Costs are *returned*, not timed: the :class:`~repro.flash.ssd.SimulatedSSD`
converts :class:`FlashCost` into queueing service time.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, Optional

from repro.flash.gc import GreedyCollector
from repro.flash.geometry import NandGeometry
from repro.sim.events import Emitter

__all__ = ["ExtentFTL", "FlashCost", "DeviceFullError"]


class DeviceFullError(RuntimeError):
    """Raised when live data exceeds the device's logical capacity."""


@dataclass(frozen=True)
class FlashCost:
    """Physical work caused by one host operation (host write + any GC)."""

    host_bytes: int = 0
    moved_bytes: int = 0
    erases: int = 0

    def __add__(self, other: "FlashCost") -> "FlashCost":
        return FlashCost(
            self.host_bytes + other.host_bytes,
            self.moved_bytes + other.moved_bytes,
            self.erases + other.erases,
        )


@dataclass(slots=True)
class _Extent:
    block_id: int
    nbytes: int


@dataclass
class _FtlStats:
    host_writes: int = 0
    host_bytes: int = 0
    invalidations: int = 0
    gc_runs: int = 0
    relocated_bytes: int = field(default=0)
    #: blocks permanently removed from service after program failures
    retired_blocks: int = 0

    def write_amplification(self) -> float:
        if self.host_bytes == 0:
            return 1.0
        return (self.host_bytes + self.relocated_bytes) / self.host_bytes


#: Stream id of the internal GC relocation frontier.
_GC_STREAM = -1
#: GC starts when the free-block pool drops to this size (at least 2,
#: so relocation always has a destination)
GC_FREE_THRESHOLD = 4


class ExtentFTL:
    """Log-structured extent map over erase blocks.

    Parameters
    ----------
    geometry:
        Device layout; ``geometry.logical_bytes`` caps live data.
    n_streams:
        Number of host write streams (frontiers).  Stream 0 is the
        default; extra streams enable hot/cold separation.
    """

    def __init__(
        self,
        geometry: NandGeometry,
        n_streams: int = 1,
    ) -> None:
        if n_streams < 1:
            raise ValueError("n_streams must be >= 1")
        if GC_FREE_THRESHOLD + n_streams + 1 >= geometry.nblocks:
            raise ValueError(
                "device too small for the requested streams and GC headroom"
            )
        self.geometry = geometry
        self.collector = GreedyCollector()
        self.n_streams = n_streams
        self.stats = _FtlStats()
        #: ``gc``: ``(ftl, victim_block, moved_bytes, reclaimed_bytes)``
        #: after each collection; ``retire``: ``(ftl, block_id,
        #: relocated_bytes)`` after a bad-block retirement — the
        #: allocator's free-space accounting subscribes to the latter
        self.events = Emitter("ftl")
        #: why GC is currently running, as ``(reason, stream)`` —
        #: ``("low_free", stream)`` while the frontier refill loop
        #: collects for ``stream``; ``None`` outside GC.  Read by the
        #: device-health layer's ``gc`` handler to attribute each
        #: episode's trigger; never consulted by the FTL itself.
        self.gc_trigger: Optional[tuple] = None

        nb = geometry.nblocks
        self._extents: Dict[Hashable, list[_Extent]] = {}
        self._block_valid: list[int] = [0] * nb
        self._block_live: list[Dict[Hashable, int]] = [{} for _ in range(nb)]
        self._free: Deque[int] = deque(range(nb))
        #: stream id -> active block id (-1 = none) / fill bytes
        self._active: Dict[int, int] = {s: -1 for s in range(n_streams)}
        self._active[_GC_STREAM] = -1
        self._fill: Dict[int, int] = {s: 0 for s in self._active}
        self._sealed: set[int] = set()
        self._retired: set[int] = set()
        self._live_bytes: int = 0
        #: logical capacity after retired blocks are deducted: retirement
        #: shrinks the physical pool, and the logical address space must
        #: shrink with it or GC eventually livelocks looking for free space
        self.effective_logical_bytes: int = geometry.logical_bytes

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def retired_blocks(self) -> int:
        """Blocks permanently out of service (bad-block retirement)."""
        return len(self._retired)

    @property
    def live_bytes(self) -> int:
        """Total valid (live) bytes currently mapped."""
        return self._live_bytes

    def blocks_of(self, key: Hashable) -> list[int]:
        """Erase blocks currently holding pieces of ``key`` (may repeat)."""
        ext = self._extents.get(key)
        if ext is None:
            return []
        return [e.block_id for e in ext]

    @property
    def n_blocks(self) -> int:
        """Total erase blocks on the device (retired ones included)."""
        return self.geometry.nblocks

    def block_valid_bytes(self, block_id: int) -> int:
        """Valid (live) bytes currently stored in ``block_id``."""
        return self._block_valid[block_id]

    def live_blocks(self) -> list[int]:
        """Blocks currently holding at least one live piece, ascending."""
        return [b for b, live in enumerate(self._block_live) if live]

    def live_keys(self, block_id: int) -> list:
        """Distinct extent keys with live pieces in ``block_id``.

        Keys are heterogeneous (ints and tuples), so order is the
        piece-insertion order — never sorted.
        """
        return list(dict.fromkeys(k for k, _i in self._block_live[block_id]))

    def max_wear_of(self, key: Hashable) -> int:
        """Highest erase count among the blocks holding ``key``.

        The wear-coupled bit-error model multiplies this by a per-P/E
        error rate: data sitting in a heavily cycled block is more
        likely to need a read retry.
        """
        counts = self.collector.stats.erase_counts
        if not counts:
            return 0
        blocks = self.blocks_of(key)
        if not blocks:
            return 0
        return max(counts.get(b, 0) for b in blocks)

    def extent_size(self, key: Hashable) -> Optional[int]:
        """Stored size of ``key`` in bytes, or ``None`` when unmapped."""
        ext = self._extents.get(key)
        if ext is None:
            return None
        return sum(e.nbytes for e in ext)

    def utilization(self) -> float:
        """Live bytes as a fraction of logical capacity."""
        return self._live_bytes / self.geometry.logical_bytes

    def validity_digest(self) -> str:
        """Digest of the per-block valid-byte vector (validity bitmap).

        Replaying the same extent writes in the same order against a
        fresh FTL reproduces the exact same placement, so a recovered
        FTL and a from-scratch rebuild must digest equally.
        """
        h = hashlib.sha256()
        h.update(repr(self._block_valid).encode())
        h.update(repr(self._live_bytes).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write(self, key: Hashable, nbytes: int, stream: int = 0) -> FlashCost:
        """Store ``nbytes`` for ``key`` at the ``stream`` frontier.

        An existing mapping for ``key`` is invalidated first (out-of-place
        update).  A write that would not fit raises
        :class:`DeviceFullError` before anything changes: the old
        version stays mapped.  Returns the physical cost including any
        garbage collection triggered.
        """
        if nbytes <= 0:
            raise ValueError(f"extent size must be positive: {nbytes!r}")
        if not 0 <= stream < self.n_streams:
            raise ValueError(
                f"stream must be in [0, {self.n_streams}), got {stream!r}"
            )
        old = self._extents.get(key)
        live = self._live_bytes - (sum(e.nbytes for e in old) if old else 0)
        if live + nbytes > self.effective_logical_bytes:
            raise DeviceFullError(
                f"write of {nbytes} B would exceed logical capacity "
                f"({live} B live of {self.effective_logical_bytes} B"
                f" after {len(self._retired)} retired blocks)"
            )
        if old is not None:
            del self._extents[key]
            self._invalidate_extents(key, old)
        # The GC work this write triggers is what it adds to the stats.
        stats = self.stats
        gc_runs, relocated = stats.gc_runs, stats.relocated_bytes
        # Register the (initially empty) piece list up front: placement can
        # seal a block and trigger GC, and the collector must be able to
        # relocate pieces of this in-flight key.
        pieces: list[_Extent] = []
        self._extents[key] = pieces
        block_bytes = self.geometry.block_bytes
        active, fill = self._active, self._fill
        remaining = nbytes
        while remaining > 0:
            if active[stream] < 0:
                self._open_frontier(stream)
            block = active[stream]
            piece = min(remaining, block_bytes - fill[stream])
            self._block_live[block][(key, len(pieces))] = piece
            pieces.append(_Extent(block, piece))
            self._block_valid[block] += piece
            fill[stream] += piece
            if fill[stream] >= block_bytes:
                self._seal(stream)
            remaining -= piece
        self._live_bytes += nbytes
        stats.host_writes += 1
        stats.host_bytes += nbytes
        return FlashCost(
            nbytes, stats.relocated_bytes - relocated, stats.gc_runs - gc_runs
        )

    def trim(self, key: Hashable) -> bool:
        """Drop the mapping for ``key``; returns ``True`` if it existed."""
        ext = self._extents.pop(key, None)
        if ext is None:
            return False
        self._invalidate_extents(key, ext)
        return True

    # ------------------------------------------------------------------
    # bad-block retirement
    # ------------------------------------------------------------------
    def retire_block(self, block_id: int) -> FlashCost:
        """Permanently remove ``block_id`` from service (program failure).

        Live pieces are relocated to the GC frontier first (the
        remap-and-retire step), then the block leaves every pool — free
        list, sealed set, active frontiers — for good.  The logical
        capacity shrinks by one block (:attr:`effective_logical_bytes`)
        so GC free-space accounting stays honest, and the collector's
        wear statistics drop the block (a dead block no longer bounds
        device lifetime).  Returns the relocation cost; retiring an
        already-retired block is a no-op.
        """
        if not 0 <= block_id < self.geometry.nblocks:
            raise ValueError(f"no block {block_id} on this device")
        if block_id in self._retired:
            return FlashCost()
        # Detach the block from whatever role it currently plays.
        for stream, active in list(self._active.items()):
            if active == block_id:
                self._active[stream] = -1
                self._fill[stream] = 0
        try:
            self._free.remove(block_id)
        except ValueError:
            pass
        self._sealed.discard(block_id)
        # Evacuate live data (the freshly failed program included).
        moved = 0
        for (key, piece_idx), nbytes in dict(self._block_live[block_id]).items():
            self._relocate(key, piece_idx, nbytes, block_id)
            moved += nbytes
        self._block_valid[block_id] = 0
        self._block_live[block_id].clear()
        self._retired.add(block_id)
        self.effective_logical_bytes = max(
            0, self.effective_logical_bytes - self.geometry.block_bytes
        )
        self.stats.retired_blocks += 1
        self.stats.relocated_bytes += moved
        self.collector.stats.note_retirement(block_id)
        if self.events.subs:
            self.events.emit("retire", self, block_id, moved)
        return FlashCost(moved_bytes=moved)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _invalidate_extents(self, key: Hashable, extents: list[_Extent]) -> None:
        for i, e in enumerate(extents):
            self._block_valid[e.block_id] -= e.nbytes
            self._block_live[e.block_id].pop((key, i), None)
            self._live_bytes -= e.nbytes
            self.stats.invalidations += 1

    def _seal(self, stream: int) -> None:
        self._sealed.add(self._active[stream])
        self._active[stream] = -1
        self._fill[stream] = 0

    def _open_block(self, stream: int) -> None:
        if not self._free:
            raise DeviceFullError("no erased blocks available")
        self._active[stream] = self._free.popleft()
        self._fill[stream] = 0

    def _open_frontier(self, stream: int) -> None:
        """Open a fresh frontier for ``stream``, GC-ing first when low."""
        if len(self._free) < GC_FREE_THRESHOLD:
            self.gc_trigger = ("low_free", stream)
            try:
                # stops early when nothing is collectable; proceeds if
                # any free block remains
                while len(self._free) < GC_FREE_THRESHOLD and self._collect_one():
                    pass
            finally:
                self.gc_trigger = None
        self._open_block(stream)

    def _collect_one(self) -> bool:
        """Collect one victim block; ``False`` when no victim exists."""
        victim = self.collector.select_victim(self._sealed, self._block_valid)
        if victim is None:
            return False
        if self._block_valid[victim] >= self.geometry.block_bytes:
            # Even the best victim is fully valid: collecting it reclaims
            # nothing and would livelock the free-block loop.
            return False
        live = dict(self._block_live[victim])
        moved = 0
        # Relocate live pieces to the dedicated GC frontier so collected
        # (cold) data does not interleave with fresh host writes.
        for (key, piece_idx), nbytes in live.items():
            self._relocate(key, piece_idx, nbytes, victim)
            moved += nbytes
        reclaimed = self.geometry.block_bytes - moved
        self._sealed.discard(victim)
        self._block_valid[victim] = 0
        self._block_live[victim].clear()
        self._free.append(victim)
        self.collector.note_collection(victim, moved, reclaimed)
        self.stats.gc_runs += 1
        self.stats.relocated_bytes += moved
        if self.events.subs:
            self.events.emit("gc", self, victim, moved, reclaimed)
        return True

    def _relocate(
        self, key: Hashable, piece_idx: int, nbytes: int, victim: int
    ) -> None:
        remaining = nbytes
        # The piece may need splitting across frontier blocks; replace the
        # original extent piece with the first new piece and append the rest.
        pieces = self._extents[key]
        first = True
        while remaining > 0:
            # a frontier is sealed as it fills, so an open one has room
            if self._active[_GC_STREAM] < 0:
                if not self._free:
                    raise DeviceFullError("GC relocation ran out of free blocks")
                self._open_block(_GC_STREAM)
            block = self._active[_GC_STREAM]
            piece = min(remaining, self.geometry.block_bytes - self._fill[_GC_STREAM])
            if first:
                old = pieces[piece_idx]
                self._block_live[victim].pop((key, piece_idx), None)
                old.block_id = block
                old.nbytes = piece
                self._block_live[block][(key, piece_idx)] = piece
                first = False
            else:
                pieces.append(_Extent(block, piece))
                self._block_live[block][(key, len(pieces) - 1)] = piece
            self._block_valid[block] += piece
            self._fill[_GC_STREAM] += piece
            if self._fill[_GC_STREAM] >= self.geometry.block_bytes:
                self._seal(_GC_STREAM)
            remaining -= piece

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Internal consistency checks; used by the test suite."""
        total_valid = sum(self._block_valid)
        mapped = sum(
            sum(e.nbytes for e in pieces) for pieces in self._extents.values()
        )
        if total_valid != mapped:
            raise AssertionError(
                f"block valid sum {total_valid} != mapped bytes {mapped}"
            )
        if mapped != self._live_bytes:
            raise AssertionError(
                f"mapped bytes {mapped} != live counter {self._live_bytes}"
            )
        for b, valid in enumerate(self._block_valid):
            if valid < 0:
                raise AssertionError(f"block {b} has negative valid bytes")
            if valid > self.geometry.block_bytes:
                raise AssertionError(f"block {b} over capacity: {valid}")
        actives = [b for b in self._active.values() if b >= 0]
        if len(actives) != len(set(actives)):
            raise AssertionError("two streams share an active block")
        for b in actives:
            if b in self._sealed:
                raise AssertionError(f"active block {b} is also sealed")
            if b in self._free:
                raise AssertionError(f"active block {b} is also free")
        for b in self._retired:
            if self._block_valid[b]:
                raise AssertionError(f"retired block {b} holds valid bytes")
            if self._block_live[b]:
                raise AssertionError(f"retired block {b} holds live pieces")
            if b in self._free:
                raise AssertionError(f"retired block {b} is also free")
            if b in self._sealed:
                raise AssertionError(f"retired block {b} is also sealed")
            if b in actives:
                raise AssertionError(f"retired block {b} is also active")