"""EDC's size-class space allocator (paper §III-C).

Compression shrinks fixed 4 KB logical blocks into variable-size
payloads, and out-of-place updates mean a re-compressed block may no
longer fit where its previous version lived.  EDC sidesteps per-byte
fragmentation by allocating *size-class* slots: 25 %, 50 %, 75 % or
100 % of the uncompressed block size.  A block whose compressed form
exceeds 75 % of the original "is considered to be non-compressible and
kept in its uncompressed form".

This module does the space accounting: class selection, slot alloc/free
with per-class free lists, physical byte usage and internal
fragmentation — the numbers behind the paper's space-efficiency results
(Fig 8).  :meth:`SizeClassAllocator.allocate` and
:meth:`SizeClassAllocator.free` are the only writers of the running
terms the space waterfall reads (live payload, slot and logical bytes,
slots and slack per class), so reading them is O(size classes); the
walk over the live slots is kept as their verifier
(:meth:`repro.flash.introspect.SpaceWaterfall.verify`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence, Tuple

__all__ = ["SizeClassAllocator", "SlotClass", "AllocatorStats"]


@dataclass(frozen=True)
class SlotClass:
    """One allocation size class."""

    fraction: float
    nbytes: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotClass({self.fraction:.2f}, {self.nbytes}B)"


@dataclass
class AllocatorStats:
    allocations: int = 0
    frees: int = 0
    recycled: int = 0
    #: sum of (slot size - payload size) over live slots
    internal_fragmentation: int = 0
    #: physical bytes lost to retired (bad) flash blocks below; reported
    #: by the device's bad-block handling via :meth:`SizeClassAllocator.note_retired`
    retired_bytes: int = 0
    #: number of retirement notifications received
    retirements: int = 0


class SizeClassAllocator:
    """Slot allocator with the paper's 25/50/75/100 % classes.

    Parameters
    ----------
    block_size:
        The uncompressed logical block size (4096 in the paper).
    fractions:
        Size-class fractions in ascending order; the largest must be 1.0
        (uncompressed).  The *incompressibility threshold* is the largest
        fraction below 1.0 — payloads bigger than that are stored raw.
    """

    def __init__(
        self,
        block_size: int = 4096,
        fractions: Sequence[float] = (0.25, 0.50, 0.75, 1.0),
    ) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive: {block_size!r}")
        fr = sorted(fractions)
        if not fr or fr[-1] != 1.0:
            raise ValueError("largest size class must be 1.0 (uncompressed)")
        if fr[0] <= 0:
            raise ValueError("size-class fractions must be positive")
        if len(set(fr)) != len(fr):
            raise ValueError("duplicate size-class fractions")
        self.block_size = block_size
        self.classes: Tuple[SlotClass, ...] = tuple(
            SlotClass(f, int(round(f * block_size))) for f in fr
        )
        self.stats = AllocatorStats()
        self._free: Dict[int, int] = {c.nbytes: 0 for c in self.classes}
        #: key -> (class, stored payload bytes, logical bytes represented)
        self._live: Dict[Hashable, Tuple[SlotClass, int, int]] = {}
        self._physical_bytes = 0
        # Running terms over ``_live``, written only by allocate / free,
        # so the sampler and the space waterfall read them every tick
        # without walking it.
        #: live slot count per class *fraction*
        self._live_by_fraction: Dict[float, int] = {
            c.fraction: 0 for c in self.classes
        }
        #: slot bytes lost to size-class rounding, per class fraction
        self._slack_by_fraction: Dict[float, int] = {
            c.fraction: 0 for c in self.classes
        }
        self._live_payload = 0
        self._live_slot_bytes = 0
        self._live_logical = 0

    # ------------------------------------------------------------------
    @property
    def incompressible_fraction(self) -> float:
        """Fraction of the original above which data is stored raw."""
        below_full = [c for c in self.classes if c.fraction < 1.0]
        return below_full[-1].fraction if below_full else 1.0

    @property
    def incompressible_threshold(self) -> int:
        """Payloads larger than this many bytes are stored uncompressed
        (for a single block of ``block_size``)."""
        return int(self.incompressible_fraction * self.block_size)

    def class_for(
        self, payload_size: int, original_size: Optional[int] = None
    ) -> SlotClass:
        """Smallest class that fits ``payload_size``.

        ``original_size`` scales the class sizes for merged runs (it
        defaults to one block).  Payloads above the incompressibility
        threshold — or above the original, for incompressible data that
        *grew* — get the full 1.0 class; the caller stores raw then.
        """
        if payload_size < 0:
            raise ValueError(f"negative payload size: {payload_size!r}")
        orig = self.block_size if original_size is None else original_size
        if orig <= 0:
            raise ValueError(f"original size must be positive: {orig!r}")
        for c in self.classes:
            if payload_size <= int(round(c.fraction * orig)):
                return SlotClass(c.fraction, int(round(c.fraction * orig)))
        return SlotClass(1.0, orig)

    def is_compressible_size(
        self, payload_size: int, original_size: Optional[int] = None
    ) -> bool:
        """True when storing ``payload_size`` compressed actually saves a class."""
        orig = self.block_size if original_size is None else original_size
        return 0 <= payload_size <= self.incompressible_fraction * orig

    # ------------------------------------------------------------------
    def allocate(
        self,
        key: Hashable,
        payload_size: int,
        original_size: Optional[int] = None,
    ) -> SlotClass:
        """Allocate a slot for ``key``; frees any previous slot for it.

        Returns the chosen class.  Per-class free lists are recycled
        before new physical space is claimed, so repeated overwrite at a
        stable compressibility reuses space (§III-C's anti-fragmentation
        argument).
        """
        if key in self._live:
            self.free(key)
        logical = self.block_size if original_size is None else original_size
        cls = self.class_for(payload_size, logical)
        stored = min(payload_size, cls.nbytes) if cls.fraction == 1.0 else payload_size
        slack = cls.nbytes - stored
        if self._free.get(cls.nbytes, 0) > 0:
            self._free[cls.nbytes] -= 1
            self.stats.recycled += 1
        else:
            self._physical_bytes += cls.nbytes
        self._live[key] = (cls, stored, logical)
        frac = cls.fraction
        self._live_by_fraction[frac] = self._live_by_fraction.get(frac, 0) + 1
        self._slack_by_fraction[frac] = self._slack_by_fraction.get(frac, 0) + slack
        self._live_payload += stored
        self._live_slot_bytes += cls.nbytes
        self._live_logical += logical
        self.stats.allocations += 1
        self.stats.internal_fragmentation += slack
        return cls

    def free(self, key: Hashable) -> bool:
        """Release the slot held by ``key``; returns ``True`` if it existed."""
        entry = self._live.pop(key, None)
        if entry is None:
            return False
        cls, stored, logical = entry
        slack = cls.nbytes - stored
        self._free[cls.nbytes] = self._free.get(cls.nbytes, 0) + 1
        self._live_by_fraction[cls.fraction] -= 1
        self._slack_by_fraction[cls.fraction] -= slack
        self._live_payload -= stored
        self._live_slot_bytes -= cls.nbytes
        self._live_logical -= logical
        self.stats.frees += 1
        self.stats.internal_fragmentation -= slack
        return True

    def lookup(self, key: Hashable) -> Optional[Tuple[SlotClass, int]]:
        """Live ``(class, stored_payload_size)`` for ``key``, if any."""
        entry = self._live.get(key)
        return None if entry is None else entry[:2]

    # ------------------------------------------------------------------
    def note_retired(self, nbytes: int) -> None:
        """Record ``nbytes`` of physical capacity lost to a bad block.

        Wired to the FTL's bad-block retirement hook so the space
        accounting the capacity planner reads (see
        :attr:`effective_physical_bytes`) shrinks with the device.
        """
        if nbytes < 0:
            raise ValueError(f"negative retired size: {nbytes!r}")
        self.stats.retired_bytes += nbytes
        self.stats.retirements += 1

    @property
    def effective_physical_bytes(self) -> int:
        """Physical bytes claimed plus capacity lost to retired blocks —
        what the stored data actually costs on a degrading device."""
        return self._physical_bytes + self.stats.retired_bytes

    # ------------------------------------------------------------------
    @property
    def live_slots(self) -> int:
        return len(self._live)

    @property
    def physical_bytes(self) -> int:
        """Physical bytes ever claimed (live slots + recyclable free slots)."""
        return self._physical_bytes

    @property
    def live_physical_bytes(self) -> int:
        """Physical bytes held by live slots only."""
        return self._live_slot_bytes

    @property
    def live_payload_bytes(self) -> int:
        """Payload bytes inside live slots (excludes internal fragmentation)."""
        return self._live_payload

    @property
    def live_logical_bytes(self) -> int:
        """Uncompressed bytes the live slots represent (the ``original_size``
        each was allocated with)."""
        return self._live_logical

    def state_digest(self) -> str:
        """Key-independent digest of the live slot population.

        Hashes the sorted multiset of ``(slot_bytes, stored_payload)``
        pairs plus the physical-byte counters, so a recovered allocator
        can be compared with a from-scratch rebuild without the opaque
        slot keys having to match.
        """
        h = hashlib.sha256()
        pairs = sorted(
            (cls.nbytes, stored) for cls, stored, _ in self._live.values()
        )
        h.update(repr(pairs).encode())
        h.update(repr(self.live_physical_bytes).encode())
        return h.hexdigest()

    def class_histogram(self) -> Dict[float, int]:
        """Live slot count per class fraction (O(1): maintained counters)."""
        return dict(self._live_by_fraction)

    def slack_by_class(self) -> Dict[float, int]:
        """Rounding slack per class fraction (O(1): maintained counters)."""
        return dict(self._slack_by_fraction)

    @property
    def free_slot_count(self) -> int:
        """Recyclable free slots across all classes."""
        return sum(self._free.values())

    @property
    def free_slot_bytes(self) -> int:
        """Physical bytes held by recyclable free slots."""
        return sum(nbytes * count for nbytes, count in self._free.items())

    def live_items(self):
        """Iterate live slots as ``(key, SlotClass, stored_payload)``.

        The walk the space waterfall's verifier uses to recompute the
        payload/slack split from first principles and cross-check the
        maintained terms.  Read-only; do not mutate while iterating.
        """
        for key, (cls, stored, _logical) in self._live.items():
            yield key, cls, stored

    def occupancy(self) -> Dict[float, float]:
        """Per-fraction share of live slots (sums to 1.0 when any live).

        The "slot occupancy" time series: drift between the 25/50/75/100 %
        classes over a replay shows compressibility (and the 75 % rule)
        changing with the workload phase.
        """
        total = sum(self._live_by_fraction.values())
        if total == 0:
            return {f: 0.0 for f in self._live_by_fraction}
        return {f: c / total for f, c in self._live_by_fraction.items()}
