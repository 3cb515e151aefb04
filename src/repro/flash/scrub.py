"""Online media scrubber: find latent errors before the host does.

A :class:`MediaScrubber` is a sim-clock daemon (armed through
:meth:`~repro.sim.engine.Simulator.every`) that walks the device's live
mapping entries at a configurable rate, verifies each extent's media
CRC with a real (charged) device read, and on a mismatch triggers
**self-healing repair**:

- on a RAIS5 backend with exactly one corrupted member and a healthy
  array, the extent is reconstructed from the surviving members
  (reconstruction reads are charged to each survivor's queue) and
  rewritten through the normal device path
  (:meth:`~repro.core.device.EDCBlockDevice.rewrite_entry`), so repair
  I/O lands in WA, queue occupancy and energy exactly like GC traffic;
- with a fleet ``replica_source`` (see
  :meth:`repro.cluster.replication.ReplicationManager.replica_source_for`)
  the clean copy is fetched from a surviving replica and re-ingested;
- otherwise the extent is **unrepairable** and escalates to the chaos
  harness's CORRUPTION accounting.

Blocks whose latent-error strike count crosses
:attr:`ScrubConfig.retire_threshold` are retired through the FTL's
normal bad-block path (relocation + capacity shrink + ``retire``
hooks), with the relocation time charged to the member's queue.

Pacing is idle-aware: a tick that finds more than
:attr:`ScrubConfig.max_outstanding` host requests in flight stands
down, so scrubbing soaks up idle windows instead of competing with
foreground bursts.  A device without a scrubber (the default) has no
daemon, no reads and no state — bit-identical to the seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

__all__ = ["ScrubConfig", "ScrubStats", "ScrubEpisode", "MediaScrubber"]


@dataclass(frozen=True)
class ScrubConfig:
    """Knobs of one device's background scrub daemon."""

    #: seconds between scrub ticks (the daemon's period)
    interval_s: float = 0.01
    #: mapping entries verified per tick (sweep rate)
    entries_per_tick: int = 128
    #: stand down when more host requests than this are in flight
    max_outstanding: int = 4
    #: latent-error strikes before a block is retired
    retire_threshold: int = 3
    #: ticks to wait before re-attempting a repair that did not land
    repair_retry_ticks: int = 8

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be positive: {self.interval_s!r}")
        if self.entries_per_tick < 1:
            raise ValueError(
                f"entries_per_tick must be >= 1: {self.entries_per_tick!r}"
            )
        if self.max_outstanding < 0:
            raise ValueError(
                f"max_outstanding must be >= 0: {self.max_outstanding!r}"
            )
        if self.retire_threshold < 1:
            raise ValueError(
                f"retire_threshold must be >= 1: {self.retire_threshold!r}"
            )
        if self.repair_retry_ticks < 1:
            raise ValueError(
                f"repair_retry_ticks must be >= 1: {self.repair_retry_ticks!r}"
            )


class ScrubStats:
    """Counters for one device's scrub daemon (``scrub.*`` metrics)."""

    FIELDS = (
        "ticks",
        "skipped_busy",
        "scanned",
        "verify_bytes",
        "corrupt_found",
        "parity_repairs",
        "parity_rewrites",
        "replica_repairs",
        "repair_read_bytes",
        "repaired_bytes",
        "unrepairable",
        "orphans_trimmed",
        "blocks_retired",
    )

    def __init__(self) -> None:
        self.ticks = 0
        self.skipped_busy = 0
        self.scanned = 0
        self.verify_bytes = 0
        self.corrupt_found = 0
        self.parity_repairs = 0
        self.parity_rewrites = 0
        self.replica_repairs = 0
        self.repair_read_bytes = 0
        self.repaired_bytes = 0
        self.unrepairable = 0
        self.orphans_trimmed = 0
        self.blocks_retired = 0

    def as_dict(self) -> Dict[str, int]:
        return {f: getattr(self, f) for f in self.FIELDS}


@dataclass(frozen=True)
class ScrubEpisode:
    """One scrub action, fully attributed (the GC-audit analogue)."""

    #: simulation time the action was taken
    t: float
    #: mapping entry the action concerns (-1 for block retirement)
    entry_id: int
    #: logical address of the extent (-1 for block retirement)
    lba: int
    #: stored bytes involved (extent size, or bytes relocated on retire)
    nbytes: int
    #: ``repair-parity`` / ``repair-replica`` / ``unrepairable`` / ``retire``
    action: str
    #: member device name the corruption/retirement was located on
    device: str
    #: erase block retired (-1 for extent-level actions)
    block: int = -1


class MediaScrubber:
    """Background CRC verify + self-healing repair for one EDC device."""

    def __init__(
        self,
        sim,
        device,
        config: Optional[ScrubConfig] = None,
        replica_source: Optional[Callable[[int, int], bool]] = None,
        max_episodes: int = 4096,
    ) -> None:
        self.sim = sim
        self.device = device
        self.config = config if config is not None else ScrubConfig()
        #: ``(lba, nbytes) -> bool`` fleet-repair hook: fetch a clean
        #: replica of the range and re-ingest it locally, charging both
        #: sides' I/O; ``None`` when the device is not replicated
        self.replica_source = replica_source
        self.stats = ScrubStats()
        self.episodes: Deque[ScrubEpisode] = deque(maxlen=max_episodes)
        self.episodes_total = 0
        #: latent-error strikes per (member name, block id)
        self._strikes: Dict[tuple, int] = {}
        #: (entry id, member name, block id) already striked — one
        #: corrupt entry strikes a block once, repair retries don't
        self._struck: set = set()
        #: entries with a repair in flight -> tick it was initiated
        self._repairing: Dict[int, int] = {}
        #: entries graded unrepairable (counted once, then left alone)
        self._known_bad: set = set()
        self._cursor = 0
        self._seq = 0
        self._event = None
        self._latent = getattr(device.backend, "latent_corrupt", None)
        device.observers["scrubber"] = self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Arm the periodic scrub daemon; returns the cancellable event."""
        if self._event is None:
            self._event = self.sim.every(self.config.interval_s, self._tick)
        return self._event

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    # ------------------------------------------------------------------
    # the daemon
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self.stats.ticks += 1
        dev = self.device
        for member in self._members():
            model = getattr(member, "latent", None)
            if model is not None:
                model.prune_dead()
        if dev.outstanding > self.config.max_outstanding:
            # Foreground burst in progress: scrub in the idle windows.
            self.stats.skipped_busy += 1
            return
        eids = sorted(dev.mapping.entry_ids())
        if not eids:
            return
        n = len(eids)
        start = self._cursor % n
        scanned = 0
        for step in range(n):
            if scanned >= self.config.entries_per_tick:
                break
            eid = eids[(start + step) % n]
            scanned += 1
            self._scan_entry(eid)
        self._cursor = (start + scanned) % n
        self._scan_parity()
        self._scan_orphans()

    def _scan_entry(self, eid: int) -> None:
        dev = self.device
        entry = dev.mapping.get(eid)
        if entry is None or eid in self._known_bad:
            return
        if eid in self._repairing:
            if dev.mapping.get(eid) is None:
                del self._repairing[eid]
                return
            if (
                self.stats.ticks - self._repairing[eid]
                < self.config.repair_retry_ticks
            ):
                return  # repair still in flight
            del self._repairing[eid]
        self.stats.scanned += 1
        stored = max(1, entry.size)
        self.stats.verify_bytes += stored

        def _after_verify() -> None:
            if self._latent is not None and self._latent(eid):
                self.stats.corrupt_found += 1
                self._repair(eid)

        def _verify_error(exc: BaseException) -> None:
            # Transient device fault during the verify read: the next
            # sweep comes back around.
            return None

        dev.distributer.read(
            eid, entry.lba, stored, _after_verify, on_error=_verify_error
        )

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def _members(self) -> List:
        backend = self.device.backend
        devices = getattr(backend, "devices", None)
        return list(devices) if devices is not None else [backend]

    def _corrupt_by_member(self, eid: int) -> List[tuple]:
        out = []
        for dev in self._members():
            model = getattr(dev, "latent", None)
            if model is None:
                continue
            keys = model.corrupt_keys_of(eid)
            if keys:
                out.append((dev, keys))
        return out

    def _repair(self, eid: int) -> None:
        dev = self.device
        entry = dev.mapping.get(eid)
        if entry is None:
            return
        stored = max(1, entry.size)
        span_bytes = entry.span * dev.config.block_size
        corrupt = self._corrupt_by_member(eid)
        if not corrupt:  # cleared in the meantime (overwrite/trim)
            return
        self._note_strikes(eid, corrupt)
        backend = dev.backend
        array = getattr(backend, "devices", None) is not None
        degraded = bool(getattr(backend, "degraded", False))
        now = self.sim.now

        if array and len(corrupt) == 1 and not degraded:
            # Parity path: rebuild the bad member's pieces from the
            # n-1 survivors, then re-place the extent.
            bad_dev, keys = corrupt[0]
            bad_bytes = sum(
                bad_dev.ftl.extent_size(k) or 0 for k in keys
            ) or stored
            self._seq += 1
            skey = ("SCRUB", self._seq)
            for member in self._members():
                if member is bad_dev:
                    continue
                self.stats.repair_read_bytes += bad_bytes
                member.submit_read(0, bad_bytes, key=skey)
            self.stats.parity_repairs += 1
            self._note(eid, entry.lba, stored, "repair-parity", bad_dev.name)
            self._repairing[eid] = self.stats.ticks
            dev.rewrite_entry(
                eid, keep_codec=True,
                on_stored=self._count_repaired_bytes,
            )
            return

        if self.replica_source is not None:
            # Fleet path: fetch the clean copy from a surviving replica
            # and re-ingest it (charged on both shards).
            member_name = corrupt[0][0].name
            self._repairing[eid] = self.stats.ticks
            if self.replica_source(entry.lba, span_bytes):
                self.stats.replica_repairs += 1
                self.stats.repair_read_bytes += stored
                self._note(eid, entry.lba, stored, "repair-replica", member_name)
                return
            del self._repairing[eid]

        # No redundancy left to rebuild from.
        self.stats.unrepairable += 1
        self._known_bad.add(eid)
        self._note(eid, entry.lba, stored, "unrepairable", corrupt[0][0].name)

    def _count_repaired_bytes(self, nbytes: int) -> None:
        self.stats.repaired_bytes += nbytes

    def _scan_parity(self) -> None:
        """Sweep corrupt parity rows (invisible to entry-level scans).

        Parity pieces ``("P", row)`` belong to no mapping entry, so the
        round-robin entry walk never reaches them; left alone they are
        silent corruption waiting for a degraded-mode reconstruction.
        Each repair recomputes the row from the surviving data members
        (charged reads) and re-programs the parity piece in place.
        """
        backend = self.device.backend
        if getattr(backend, "devices", None) is None:
            return
        if bool(getattr(backend, "degraded", False)):
            return  # a missing member: nothing to recompute parity from
        budget = max(1, self.config.entries_per_tick // 8)
        members = self._members()
        for member in members:
            model = getattr(member, "latent", None)
            if model is None:
                continue
            for row in model.corrupt_parity_rows():
                if budget <= 0:
                    return
                budget -= 1
                self._repair_parity_row(member, row, members)

    def _scan_orphans(self) -> None:
        """Trim corrupt pieces whose owning entry no longer exists.

        The distributer can leave stale member pieces behind when an
        entry is replaced; with no live entry above them they are
        host-unreachable, so a media scan simply invalidates the page
        (a trim — no relocation, no queue time) instead of repairing
        data nobody can address.
        """
        mapping = self.device.mapping
        for member in self._members():
            model = getattr(member, "latent", None)
            if model is None:
                continue
            for key in model.corrupt_data_keys():
                base = key[0] if isinstance(key, tuple) else key
                if mapping.get(base) is not None:
                    continue
                if member.trim(key):
                    self.stats.orphans_trimmed += 1
                    self._note(
                        base, -1,
                        0, "trim-orphan", member.name,
                    )

    def _repair_parity_row(self, member, row: int, members: List) -> None:
        key = ("P", row)
        size = member.ftl.extent_size(key) or self.device.config.block_size
        self._seq += 1
        skey = ("SCRUB", self._seq)
        for m in members:
            if m is member:
                continue
            self.stats.repair_read_bytes += size
            m.submit_read(0, size, key=skey)
        # Re-programming the parity key in place replaces the leaked
        # charge; the SSD's write hook clears the latent mark.
        member.submit_write(0, size, key=key)
        self.stats.parity_rewrites += 1
        self.stats.repaired_bytes += size
        self._note(-1, -1, size, "repair-parity-row", member.name)

    def _note_strikes(self, eid: int, corrupt: List[tuple]) -> None:
        """Strike the blocks holding corrupt pieces; retire repeat offenders.

        One corrupt entry strikes a block at most once — a repair that
        takes several sweeps to land must not turn into ``threshold``
        strikes on its own.
        """
        threshold = self.config.retire_threshold
        for dev, keys in corrupt:
            blocks = set()
            for k in keys:
                blocks.update(dev.ftl.blocks_of(k))
            for b in blocks:
                if (eid, dev.name, b) in self._struck:
                    continue
                self._struck.add((eid, dev.name, b))
                sk = (dev.name, b)
                self._strikes[sk] = self._strikes.get(sk, 0) + 1
                if self._strikes[sk] == threshold:
                    self._retire(dev, b)

    def _retire(self, dev, block: int) -> None:
        ftl = dev.ftl
        bb = ftl.geometry.block_bytes
        # Never retire a block the address space cannot afford to lose:
        # retirement shrinks logical capacity, and shrinking it below
        # the live footprint (plus a safety margin) would turn host
        # writes into DeviceFullError — worse than wearing the block.
        if ftl.effective_logical_bytes - bb < ftl.live_bytes + 4 * bb:
            return
        rcost = ftl.retire_block(block)
        # Relocation + erase time lands on the member's queue exactly
        # like GC work (the FTL already counted the moved bytes).
        busy = dev.gc_time(rcost)
        if busy > 0:
            dev.queue.submit(busy, tag=("SCRUB-RETIRE", block))
        self.stats.blocks_retired += 1
        self._note(
            -1, -1, rcost.moved_bytes, "retire", dev.name, block=block
        )

    def _note(
        self, eid: int, lba: int, nbytes: int, action: str,
        device: str, block: int = -1,
    ) -> None:
        self.episodes.append(
            ScrubEpisode(
                t=self.sim.now, entry_id=eid, lba=lba, nbytes=nbytes,
                action=action, device=device, block=block,
            )
        )
        self.episodes_total += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def audit_table(self, last: int = 8) -> str:
        """The newest ``last`` scrub episodes as an aligned text table."""
        s = self.stats
        header = (
            f"scrub audit ({s.scanned} scans, {s.corrupt_found} corrupt, "
            f"{s.parity_repairs + s.replica_repairs} repaired, "
            f"{s.unrepairable} unrepairable, {s.blocks_retired} retired)"
        )
        lines = [header]
        if self.episodes:
            lines.append(
                f"  {'t':>9}  {'entry':>6}  {'lba':>9}  {'bytes':>8}  "
                f"{'action':<14}  device"
            )
            for ep in list(self.episodes)[-last:]:
                where = (
                    f"{ep.device} blk {ep.block}" if ep.block >= 0 else ep.device
                )
                lines.append(
                    f"  {ep.t:9.4f}  {ep.entry_id:6d}  {ep.lba:9d}  "
                    f"{ep.nbytes:8d}  {ep.action:<14}  {where}"
                )
        return "\n".join(lines)

    def to_dict(self, last_episodes: int = 256) -> Dict[str, object]:
        """JSON-ready scrub audit (the run record's ``scrub`` section)."""
        return {
            "config": {
                "interval_s": self.config.interval_s,
                "entries_per_tick": self.config.entries_per_tick,
                "max_outstanding": self.config.max_outstanding,
                "retire_threshold": self.config.retire_threshold,
            },
            "stats": self.stats.as_dict(),
            "episodes": [
                {
                    "t": ep.t,
                    "entry_id": ep.entry_id,
                    "lba": ep.lba,
                    "nbytes": ep.nbytes,
                    "action": ep.action,
                    "device": ep.device,
                    "block": ep.block,
                }
                for ep in list(self.episodes)[-last_episodes:]
            ],
        }
