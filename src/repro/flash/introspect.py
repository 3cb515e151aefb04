"""Device introspection: SMART-style health and space attribution.

The paper's two headline claims — better space efficiency and longer
flash lifetime — are end-of-run scalars (realised ratio, WA) unless the
device can say *where* the space goes and *which* blocks age.  This
module is the pure query layer behind the device-health telemetry
(:mod:`repro.telemetry.devhealth`): it reads the counters the
:class:`~repro.flash.allocator.SizeClassAllocator`,
:class:`~repro.flash.ftl.ExtentFTL` and
:class:`~repro.flash.gc.GcStats` already maintain and reconciles them
into two reports:

- :class:`SmartSnapshot` — a SMART-style health page: wear percentiles
  and the erase-count histogram (the :mod:`repro.flash.endurance`
  inputs), spare/retired capacity, the cumulative write-amplification
  split (host vs GC vs metadata vs rebuild), GC efficiency, and the
  lifetime/DWPD projection;
- :class:`SpaceWaterfall` — the space-efficiency waterfall: logical
  bytes → compressed payload → slot bytes (per-size-class slack) →
  free-slot / retired overhead → physical bytes, with an **exact
  conservation invariant**: :meth:`SpaceWaterfall.verify` recomputes
  every stage from the live slot population and fails the run when the
  maintained counters disagree (PR 7 style — accounting drift is a bug,
  not a rounding artefact).

Everything here is read-only over existing state: building a snapshot
never mutates the device, so introspection cannot perturb a replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.flash.endurance import PE_LIMITS

__all__ = [
    "SpaceAccountingError",
    "WaterfallStage",
    "SpaceWaterfall",
    "SmartSnapshot",
    "space_waterfall",
    "smart_snapshot",
    "members_of",
    "ftls_of",
    "queues_of",
    "write_amplification",
]

#: Default tolerance of the conservation checks.  All stage values are
#: integer byte counts, so any genuine mismatch is >= 1 byte; the eps
#: only guards the float casts in the comparison itself.
CONSERVATION_EPS = 1e-6


class SpaceAccountingError(AssertionError):
    """Raised when the space waterfall fails its conservation invariant."""


def members_of(backend) -> List[object]:
    """``backend`` followed by every array member beneath it.

    The one walker of ``backend.devices``: observers find the queue
    servers, SSD emitters and FTLs of a stack through it.
    """
    out: List[object] = [backend]
    for dev in getattr(backend, "devices", ()) or ():
        out.extend(members_of(dev))
    return out


def ftls_of(backend) -> List[object]:
    """Every :class:`~repro.flash.ftl.ExtentFTL` under ``backend``."""
    return [
        m.ftl for m in members_of(backend)
        if getattr(m, "ftl", None) is not None
    ]


def queues_of(backend) -> List[object]:
    """Every device queue :class:`~repro.sim.queueing.Server` under ``backend``."""
    return [
        m.queue for m in members_of(backend)
        if getattr(m, "queue", None) is not None
    ]


def write_amplification(ftls) -> float:
    """(host + GC-relocated) / host bytes over ``ftls``: one SSD's, an
    array's members' (``ftls_of(backend)``) or a whole fleet's."""
    host = sum(f.stats.host_bytes for f in ftls)
    moved = sum(f.stats.relocated_bytes for f in ftls)
    return (host + moved) / host if host else 1.0


# ----------------------------------------------------------------------
# space-efficiency waterfall
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WaterfallStage:
    """One step of the waterfall: a named delta and its running total."""

    name: str
    delta: int
    cumulative: int


@dataclass(frozen=True)
class SpaceWaterfall:
    """Logical bytes → physical bytes, every overhead attributed.

    Every field is read off a running term the allocator or the FTLs
    maintain, so building a waterfall costs O(size classes), not a walk.
    The ``counter_*`` fields repeat the allocator's totals under the
    names its own counters carry.  :meth:`verify` is where the walk
    lives: it recomputes the slot terms from the live slots of the
    device the waterfall was read from, requires each maintained term
    to match, then checks the conservation identities — the invariant
    the health exhibit gates on.
    """

    #: uncompressed bytes the live slots represent
    logical_bytes: int
    #: compressed payload bytes inside live slots
    payload_bytes: int
    #: slot bytes wasted to size-class rounding
    slack_bytes: int
    #: slack per size-class fraction (keys are 0.25 .. 1.0)
    slack_by_class: Dict[float, int]
    #: live slot count per size-class fraction
    slots_by_class: Dict[float, int]
    #: physical bytes held by live slots
    live_slot_bytes: int
    #: recyclable free-slot bytes (allocator free lists)
    free_slot_bytes: int
    #: physical bytes ever claimed (live + free slots)
    physical_bytes: int
    #: capacity lost to retired (bad) flash blocks
    retired_bytes: int
    #: physical + retired: what the stored data costs on this device
    effective_physical_bytes: int

    # -- the allocator's own counters, for the cross-check -------------
    counter_payload_bytes: int
    counter_slack_bytes: int
    counter_live_slot_bytes: int

    # -- FTL-side reconciliation ---------------------------------------
    #: live bytes across every FTL under the backend
    ftl_live_bytes: int
    #: live metadata extents (journal segments + checkpoints), when a
    #: recovery manager is bound; 0 otherwise
    meta_live_bytes: int
    #: FTL bytes not explained by slots + metadata (array parity and
    #: replica copies on multi-device backends; must be 0 on one SSD)
    ftl_residual_bytes: int
    #: whether the FTL reconciliation is exact (single-SSD backends)
    ftl_exact: bool = True
    #: the device the terms were read from, which :meth:`verify` walks
    #: (``None``: a hand-built waterfall, checked on its identities only)
    device: object = field(default=None, repr=False, compare=False)
    #: the allocator's allocations + frees when the terms were read
    allocator_ops: int = field(default=0, repr=False, compare=False)

    def stages(self) -> List[WaterfallStage]:
        """The waterfall as presentation-ordered stages.

        Negative deltas are savings (compression), positive deltas are
        overheads (slack, free slots, retirement); the final cumulative
        equals :attr:`effective_physical_bytes`.
        """
        out: List[WaterfallStage] = []
        cum = self.logical_bytes
        out.append(WaterfallStage("logical", self.logical_bytes, cum))
        cum += self.payload_bytes - self.logical_bytes
        out.append(
            WaterfallStage(
                "compression", self.payload_bytes - self.logical_bytes, cum
            )
        )
        for frac in sorted(self.slack_by_class):
            slack = self.slack_by_class[frac]
            cum += slack
            out.append(
                WaterfallStage(f"slack@{int(frac * 100)}%", slack, cum)
            )
        cum += self.free_slot_bytes
        out.append(WaterfallStage("free_slots", self.free_slot_bytes, cum))
        cum += self.retired_bytes
        out.append(WaterfallStage("retired", self.retired_bytes, cum))
        return out

    @property
    def realized_ratio(self) -> float:
        """Logical bytes per physical byte actually spent."""
        if self.effective_physical_bytes == 0:
            return 1.0
        return self.logical_bytes / self.effective_physical_bytes

    def verify(self, eps: float = CONSERVATION_EPS) -> None:
        """Walk the live slots, check every identity; raise on any mismatch.

        The walk (skipped for a hand-built waterfall) recomputes, from
        the allocator's live slots and the mapping entry each one holds,
        the logical bytes, payload, slack and the per-class slack and
        slot counts, and requires each to equal its maintained term.
        The logical one is the identity "bytes the allocator holds ==
        bytes of the mapping entries it holds".  Then the identities
        (all in integer bytes):

        1. payload + slack == live-slot bytes
        2. the fields == the allocator counters they repeat
        3. live-slot + free-slot bytes == physical bytes
        4. physical + retired == effective physical bytes
        5. per-class slack sums to total slack
        6. the waterfall's final cumulative == effective physical bytes
        7. (single SSD) FTL live bytes == live slots + live metadata
        """
        def check(name: str, a: float, b: float) -> None:
            if abs(a - b) > eps:
                raise SpaceAccountingError(
                    f"space waterfall: {name}: {a!r} != {b!r} "
                    f"(diff {a - b!r})"
                )

        if self.device is not None:
            self._walk(check)
        check(
            "payload + slack vs live slots",
            self.payload_bytes + self.slack_bytes,
            self.live_slot_bytes,
        )
        check(
            "payload vs live_payload_bytes counter",
            self.payload_bytes,
            self.counter_payload_bytes,
        )
        check(
            "slack vs internal_fragmentation counter",
            self.slack_bytes,
            self.counter_slack_bytes,
        )
        check(
            "live slots vs live_physical_bytes counter",
            self.live_slot_bytes,
            self.counter_live_slot_bytes,
        )
        check(
            "live + free slots vs physical_bytes",
            self.live_slot_bytes + self.free_slot_bytes,
            self.physical_bytes,
        )
        check(
            "physical + retired vs effective_physical_bytes",
            self.physical_bytes + self.retired_bytes,
            self.effective_physical_bytes,
        )
        check(
            "per-class slack vs total slack",
            sum(self.slack_by_class.values()),
            self.slack_bytes,
        )
        stages = self.stages()
        check(
            "waterfall cumulative vs effective physical",
            stages[-1].cumulative,
            self.effective_physical_bytes,
        )
        if self.ftl_exact:
            check(
                "FTL live bytes vs slots + metadata",
                self.ftl_live_bytes,
                self.live_slot_bytes + self.meta_live_bytes,
            )

    def _walk(self, check) -> None:
        """Recompute the slot terms from the device's live slots and
        ``check`` each against the maintained term it should equal."""
        allocator = self.device.allocator
        mapping = self.device.mapping
        ops = allocator.stats.allocations + allocator.stats.frees
        if ops != self.allocator_ops:
            raise SpaceAccountingError(
                "space waterfall: stale: the allocator changed since it "
                f"was read ({self.allocator_ops} -> {ops} allocations + "
                "frees); build a new one"
            )
        logical = payload = slack = 0
        slack_by_class: Dict[float, int] = {}
        slots_by_class: Dict[float, int] = {}
        for key, cls, stored in allocator.live_items():
            entry = mapping.get(key)
            if entry is not None:
                logical += entry.original_size
            waste = cls.nbytes - stored
            payload += stored
            slack += waste
            frac = cls.fraction
            slack_by_class[frac] = slack_by_class.get(frac, 0) + waste
            slots_by_class[frac] = slots_by_class.get(frac, 0) + 1
        check(
            "logical bytes of the mapping entries held vs allocator "
            "live_logical_bytes",
            logical,
            self.logical_bytes,
        )
        check("walked payload vs live_payload_bytes", payload,
              self.payload_bytes)
        check("walked slack vs internal_fragmentation", slack,
              self.slack_bytes)
        for name, walked, kept in (
            ("slack_by_class", slack_by_class, self.slack_by_class),
            ("slots_by_class", slots_by_class, self.slots_by_class),
        ):
            for frac in sorted(walked.keys() | kept.keys()):
                check(f"walked {name}[{frac}] vs maintained",
                      walked.get(frac, 0), kept.get(frac, 0))


def _meta_live_bytes(device, ftls: List[object]) -> int:
    """Live journal/checkpoint extent bytes of a bound recovery manager."""
    recovery = device.recovery
    if recovery is None:
        return 0
    total = 0
    for key in recovery.meta_extent_keys:
        for ftl in ftls:
            size = ftl.extent_size(key)
            if size is not None:
                total += size
    return total


def space_waterfall(device) -> SpaceWaterfall:
    """Build the space waterfall for one ``EDCBlockDevice``.

    Reads the allocator's maintained terms and the FTLs' live-byte
    totals, O(size classes + array members): no walk over the live
    slots (:meth:`SpaceWaterfall.verify` does that).  Read-only: the
    device is not mutated.
    """
    allocator = device.allocator
    backend = device.distributer.backend
    ftls = ftls_of(backend)
    ftl_live = sum(f.live_bytes for f in ftls)
    meta_live = _meta_live_bytes(device, ftls)
    payload = allocator.live_payload_bytes
    slack = allocator.stats.internal_fragmentation
    live_slot = allocator.live_physical_bytes
    return SpaceWaterfall(
        logical_bytes=allocator.live_logical_bytes,
        payload_bytes=payload,
        slack_bytes=slack,
        slack_by_class=allocator.slack_by_class(),
        slots_by_class=allocator.class_histogram(),
        live_slot_bytes=live_slot,
        free_slot_bytes=allocator.free_slot_bytes,
        physical_bytes=allocator.physical_bytes,
        retired_bytes=allocator.stats.retired_bytes,
        effective_physical_bytes=allocator.effective_physical_bytes,
        counter_payload_bytes=payload,
        counter_slack_bytes=slack,
        counter_live_slot_bytes=live_slot,
        ftl_live_bytes=ftl_live,
        meta_live_bytes=meta_live,
        ftl_residual_bytes=ftl_live - live_slot - meta_live,
        # Arrays store parity / striped copies the allocator never sees,
        # so the FTL identity is only exact on a single-SSD backend.
        ftl_exact=len(ftls) == 1 == len(members_of(backend)),
        device=device,
        allocator_ops=allocator.stats.allocations + allocator.stats.frees,
    )


# ----------------------------------------------------------------------
# SMART-style health snapshot
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SmartSnapshot:
    """One SMART-style health page over a device's backend.

    Wear statistics are computed over every in-service block (blocks
    never erased count as zero; retired blocks are excluded, matching
    :class:`~repro.flash.gc.GcStats.note_retirement`).  On array
    backends the counters aggregate across members and the wear
    percentiles run over the combined block population.
    """

    cell_type: str
    pe_limit: int
    observed_seconds: float

    # -- wear ----------------------------------------------------------
    total_erases: int
    wear_p50: float
    wear_p95: float
    wear_max: int
    mean_block_erases: float
    #: erase count -> number of in-service blocks at that count
    erase_histogram: Dict[int, int] = field(default_factory=dict)

    # -- capacity ------------------------------------------------------
    spare_blocks: int = 0
    spare_bytes: int = 0
    retired_blocks: int = 0
    retired_bytes: int = 0
    utilization: float = 0.0

    # -- write-amplification split -------------------------------------
    #: host data bytes (metadata excluded)
    host_data_bytes: int = 0
    #: journal + checkpoint bytes (in-band metadata writes)
    meta_bytes: int = 0
    #: bytes GC relocated out of victim blocks
    gc_moved_bytes: int = 0
    #: bytes relocated by bad-block retirement / rebuild
    rebuild_bytes: int = 0
    #: bytes rewritten by the media scrubber's self-healing repairs
    scrub_bytes: int = 0
    write_amplification: float = 1.0

    # -- GC ------------------------------------------------------------
    gc_collections: int = 0
    gc_reclaimed_bytes: int = 0
    gc_efficiency: float = 1.0

    # -- projection ----------------------------------------------------
    wear_fraction: float = 0.0
    projected_lifetime_seconds: float = float("inf")
    drive_writes_per_day: float = 0.0

    def wa_split(self) -> Dict[str, int]:
        """The WA numerator, attributed: host / metadata / GC / rebuild
        / scrub repair."""
        return {
            "host": self.host_data_bytes,
            "metadata": self.meta_bytes,
            "gc": self.gc_moved_bytes,
            "rebuild": self.rebuild_bytes,
            "scrub": self.scrub_bytes,
        }


def _percentile(histogram: Dict[int, int], n: int, q: float) -> float:
    """``np.percentile(values, q)`` of the ``n`` values that ``histogram``
    (value -> multiplicity, ascending) describes, without listing them.

    The same float arithmetic as numpy's default linear method: the rank
    ``(n - 1) * q / 100`` falls between two order statistics, and unequal
    neighbours are blended with numpy's two-sided lerp, so the answer is
    bit-identical to numpy's over the expanded list.
    """
    rank = (n - 1) * (q / 100)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    t = rank - lo
    a = b = 0.0
    seen = 0
    for value, count in histogram.items():
        if seen <= lo:
            a = float(value)
        seen += count
        if seen > hi:
            b = float(value)
            break
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def smart_snapshot(
    device, observed_seconds: float, cell_type: str = "SLC"
) -> SmartSnapshot:
    """Summarise the health of ``device``'s backend at one instant.

    ``observed_seconds`` is the simulated horizon the erase counts were
    accumulated over; it drives the lifetime extrapolation exactly as
    :meth:`~repro.flash.endurance.EnduranceModel.report` does.
    """
    if observed_seconds < 0:
        raise ValueError(f"negative horizon: {observed_seconds!r}")
    if cell_type not in PE_LIMITS:
        raise ValueError(
            f"unknown cell type {cell_type!r}; known: {sorted(PE_LIMITS)}"
        )
    pe_limit = PE_LIMITS[cell_type]
    ftls = ftls_of(device.distributer.backend)
    if not ftls:
        raise ValueError("backend has no FTL to introspect")

    histogram: Dict[int, int] = {}
    total_erases = 0
    host_bytes = relocated = gc_moved = reclaimed = collections = 0
    spare_blocks = retired_blocks = 0
    spare_bytes = retired_flash_bytes = 0
    live_bytes = logical_capacity = 0
    raw_capacity = 0
    for ftl in ftls:
        geo = ftl.geometry
        stats = ftl.collector.stats
        in_service = geo.nblocks - ftl.retired_blocks
        for n, blocks in stats.erase_histogram.items():
            histogram[n] = histogram.get(n, 0) + blocks
        never = in_service - len(stats.erase_counts)
        if never > 0:
            histogram[0] = histogram.get(0, 0) + never
        total_erases += stats.erases
        host_bytes += ftl.stats.host_bytes
        relocated += ftl.stats.relocated_bytes
        gc_moved += stats.moved_bytes
        reclaimed += stats.reclaimed_bytes
        collections += stats.collections
        spare_blocks += ftl.free_blocks
        spare_bytes += ftl.free_blocks * geo.block_bytes
        retired_blocks += ftl.retired_blocks
        retired_flash_bytes += ftl.retired_blocks * geo.block_bytes
        live_bytes += ftl.live_bytes
        logical_capacity += ftl.effective_logical_bytes
        raw_capacity += geo.nblocks * geo.block_bytes

    histogram = dict(sorted(histogram.items()))
    nblocks = sum(histogram.values())
    wear_max = max(histogram, default=0)
    wear_p50 = _percentile(histogram, nblocks, 50) if nblocks else 0.0
    wear_p95 = _percentile(histogram, nblocks, 95) if nblocks else 0.0
    mean = (
        sum(n * blocks for n, blocks in histogram.items()) / nblocks
        if nblocks else 0.0
    )

    recovery = device.recovery
    meta_bytes = (
        recovery.stats.meta_write_bytes if recovery is not None else 0
    )
    meta_bytes = min(meta_bytes, host_bytes)
    scrubber = device.observers.get("scrubber")
    scrub_bytes = (
        scrubber.stats.repaired_bytes if scrubber is not None else 0
    )
    # Scrub repairs flow through the normal write path, so they land in
    # host_bytes; re-attribute them to their own WA lane.
    scrub_bytes = min(scrub_bytes, host_bytes - meta_bytes)
    rebuild = relocated - gc_moved
    wa = (
        (host_bytes + relocated) / host_bytes if host_bytes else 1.0
    )
    moved_plus = gc_moved + reclaimed
    gc_eff = reclaimed / moved_plus if moved_plus else 1.0

    if wear_max == 0 or observed_seconds <= 0:
        lifetime = float("inf")
    else:
        rate = wear_max / observed_seconds
        lifetime = (pe_limit - wear_max) / rate
    service_days = 5 * 365
    pe_budget = pe_limit * raw_capacity
    usable_host = pe_budget / max(wa, 1.0)
    dwpd = (
        usable_host / (logical_capacity * service_days)
        if logical_capacity
        else 0.0
    )

    return SmartSnapshot(
        cell_type=cell_type,
        pe_limit=pe_limit,
        observed_seconds=observed_seconds,
        total_erases=total_erases,
        wear_p50=wear_p50,
        wear_p95=wear_p95,
        wear_max=wear_max,
        mean_block_erases=mean,
        erase_histogram=histogram,
        spare_blocks=spare_blocks,
        spare_bytes=spare_bytes,
        retired_blocks=retired_blocks,
        retired_bytes=retired_flash_bytes,
        utilization=(
            live_bytes / logical_capacity if logical_capacity else 0.0
        ),
        host_data_bytes=host_bytes - meta_bytes - scrub_bytes,
        meta_bytes=meta_bytes,
        gc_moved_bytes=gc_moved,
        rebuild_bytes=rebuild,
        scrub_bytes=scrub_bytes,
        write_amplification=wa,
        gc_collections=collections,
        gc_reclaimed_bytes=reclaimed,
        gc_efficiency=gc_eff,
        wear_fraction=wear_max / pe_limit,
        projected_lifetime_seconds=lifetime,
        drive_writes_per_day=dwpd,
    )
