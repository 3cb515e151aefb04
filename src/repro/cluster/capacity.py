"""Per-shard capacity tracking and imbalance detection.

Elastic compression makes usable capacity a *runtime* quantity: a shard
serving highly compressible tenants stores far more logical bytes per
physical byte than one serving incompressible traffic, so placement
that balances raw logical bytes can still run one shard out of flash
while its neighbours sit half empty.  :class:`CapacityBalancer`
therefore reads each shard's **realised** signals — live mapped logical
bytes, the size-class allocator's physical footprint, and the realised
compression ratio — and flags the fleet as imbalanced when the spread
of physical occupancy exceeds :data:`IMBALANCE_THRESHOLD`.  :meth:`pick_range` then
nominates the heaviest LBA range on the hottest shard as the migration
candidate, closing the loop with
:class:`~repro.cluster.migration.MigrationOrchestrator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.routing import ClusterDistributer

__all__ = ["ShardCapacity", "CapacityBalancer"]

#: physical-occupancy spread over the mean above which the fleet is
#: imbalanced
IMBALANCE_THRESHOLD = 0.25


@dataclass(frozen=True)
class ShardCapacity:
    """Point-in-time capacity view of one shard."""

    name: str
    #: live mapped logical bytes (mapping coverage x block size)
    logical_bytes: int
    #: compressed bytes resident in the size-class allocator
    physical_bytes: int
    #: realised compression ratio (logical / physical; 1.0 when empty)
    ratio: float
    #: requests currently outstanding inside the shard device
    queue_depth: int
    #: LBA ranges currently routed to this shard
    ranges: int


class CapacityBalancer:
    """Watches fleet occupancy and nominates migration candidates."""

    def __init__(self, cluster: ClusterDistributer) -> None:
        self.cluster = cluster

    # ------------------------------------------------------------------
    def total_ranges(self) -> int:
        """Routable ranges across every tenant namespace (internal
        tenants such as rebuild carry no namespace of their own)."""
        c = self.cluster
        tenants = sum(
            not st.spec.internal for st in c.scheduler.tenants.values()
        )
        span = tenants * c.namespace_bytes
        return (span + c.range_bytes - 1) // c.range_bytes

    def ranges_of(self, shard: str) -> List[int]:
        """Range indices currently routed to ``shard``."""
        return [
            ridx for ridx in range(self.total_ranges())
            if self.cluster.owner_of(ridx) == shard
        ]

    def snapshot(self) -> Dict[str, ShardCapacity]:
        """Capacity view of every shard, keyed by shard name."""
        bs = self.cluster.block_size
        owned: Dict[str, int] = {name: 0 for name in self.cluster.shards}
        for ridx in range(self.total_ranges()):
            owned[self.cluster.owner_of(ridx)] += 1
        out: Dict[str, ShardCapacity] = {}
        for name, dev in self.cluster.shards.items():
            logical = dev.mapping.covered_blocks() * bs
            physical = dev.allocator.physical_bytes
            out[name] = ShardCapacity(
                name=name,
                logical_bytes=logical,
                physical_bytes=physical,
                ratio=(logical / physical) if physical else 1.0,
                queue_depth=dev.outstanding,
                ranges=owned[name],
            )
        return out

    # ------------------------------------------------------------------
    def imbalance(
        self, snap: Optional[Dict[str, ShardCapacity]] = None
    ) -> float:
        """Physical-occupancy spread: ``(max - min) / mean`` (0 when empty)."""
        snap = snap if snap is not None else self.snapshot()
        phys = [s.physical_bytes for s in snap.values()]
        mean = sum(phys) / len(phys)
        if mean <= 0:
            return 0.0
        return (max(phys) - min(phys)) / mean

    def is_imbalanced(
        self, snap: Optional[Dict[str, ShardCapacity]] = None
    ) -> bool:
        return self.imbalance(snap) > IMBALANCE_THRESHOLD

    def suggest(self) -> Optional[Tuple[str, str]]:
        """``(overloaded, underloaded)`` shard pair, or ``None`` if balanced.

        Ties break on shard name so the suggestion is deterministic.
        """
        snap = self.snapshot()
        if len(snap) < 2 or not self.is_imbalanced(snap):
            return None
        src = max(snap.values(), key=lambda s: (s.physical_bytes, s.name))
        dst = min(snap.values(), key=lambda s: (s.physical_bytes, s.name))
        if src.name == dst.name:
            return None
        return src.name, dst.name

    # ------------------------------------------------------------------
    def range_weight(self, ridx: int) -> int:
        """Mapped blocks of range ``ridx`` on its current owner."""
        c = self.cluster
        dev = c.shards[c.owner_of(ridx)]
        bs = c.block_size
        start = ridx * c.range_blocks
        return sum(
            1 for blk in range(start, start + c.range_blocks)
            if dev.mapping.lookup(blk * bs) is not None
        )

    def pick_range(self, src: str, exclude: Tuple[int, ...] = ()) -> Optional[int]:
        """Heaviest (most mapped blocks) range owned by ``src``.

        ``exclude`` skips ranges already mid-migration.  Returns ``None``
        when the shard owns no populated range.
        """
        best: Optional[int] = None
        best_weight = 0
        for ridx in self.ranges_of(src):
            if ridx in exclude:
                continue
            w = self.range_weight(ridx)
            if w > best_weight:
                best, best_weight = ridx, w
        return best
