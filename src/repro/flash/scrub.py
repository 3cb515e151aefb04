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
- otherwise the extent is **unrepairable** and escalates to the chaos
  harness's CORRUPTION accounting.

Blocks whose latent-error strike count crosses
:data:`RETIRE_THRESHOLD` are retired through the FTL's
normal bad-block path (relocation + capacity shrink + ``retire``
hooks), with the relocation time charged to the member's queue.

Pacing is idle-aware: a tick that finds more than
:data:`MAX_OUTSTANDING` host requests in flight stands down, so scrubbing soaks up idle windows instead of competing with
foreground bursts.  A device without a scrubber (the default) has no
daemon, no reads and no state — bit-identical to the seed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.flash.introspect import ssds_of
from repro.flash.raid import RAIS5

__all__ = ["ScrubConfig", "ScrubStats", "ScrubEpisode", "MediaScrubber"]

#: mapping entries verified per tick (sweep rate)
ENTRIES_PER_TICK = 128
#: latent-error strikes before a block is retired
RETIRE_THRESHOLD = 3
#: ticks to wait before re-attempting a repair that did not land
REPAIR_RETRY_TICKS = 8
#: scrub episodes kept for the audit (older ones are counted only)
MAX_EPISODES = 4096
#: a tick stands down when more host requests than this are in flight
MAX_OUTSTANDING = 4


@dataclass(frozen=True)
class ScrubConfig:
    """Knobs of one device's background scrub daemon (the rest are the
    module constants above)."""

    #: seconds between scrub ticks (the daemon's period)
    interval_s: float = 0.01

    def __post_init__(self) -> None:
        if not 0 < self.interval_s < math.inf:
            raise ValueError(
                f"interval_s must be positive and finite: {self.interval_s!r}"
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
        "repair_read_bytes",
        "repaired_bytes",
        "unrepairable",
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
        self.repair_read_bytes = 0
        self.repaired_bytes = 0
        self.unrepairable = 0
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
    #: ``repair-parity`` / ``unrepairable`` / ``retire``
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
    ) -> None:
        self.sim = sim
        self.device = device
        self.config = config if config is not None else ScrubConfig()
        self.stats = ScrubStats()
        self.episodes: Deque[ScrubEpisode] = deque(maxlen=MAX_EPISODES)
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
        self._latent = device.backend.latent_corrupt
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
        for member in ssds_of(dev.backend):
            if member.latent is not None:
                member.latent.prune_dead()
        if dev.outstanding > MAX_OUTSTANDING:
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
            if scanned >= ENTRIES_PER_TICK:
                break
            eid = eids[(start + step) % n]
            scanned += 1
            self._scan_entry(eid)
        self._cursor = (start + scanned) % n
        self._scan_parity()

    def _scan_entry(self, eid: int) -> None:
        dev = self.device
        entry = dev.mapping.get(eid)
        if entry is None or eid in self._known_bad:
            return
        if eid in self._repairing:
            if dev.mapping.get(eid) is None:
                del self._repairing[eid]
                return
            if self.stats.ticks - self._repairing[eid] < REPAIR_RETRY_TICKS:
                return  # repair still in flight
            del self._repairing[eid]
        self.stats.scanned += 1
        stored = max(1, entry.size)
        self.stats.verify_bytes += stored

        def _after_verify() -> None:
            if self._latent(eid):
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
    def _corrupt_by_member(self, eid: int) -> List[tuple]:
        out = []
        for dev in ssds_of(self.device.backend):
            if dev.latent is None:
                continue
            keys = dev.latent.corrupt_keys_of(eid)
            if keys:
                out.append((dev, keys))
        return out

    def _repair(self, eid: int) -> None:
        dev = self.device
        entry = dev.mapping.get(eid)
        if entry is None:
            return
        stored = max(1, entry.size)
        corrupt = self._corrupt_by_member(eid)
        if not corrupt:  # cleared in the meantime (overwrite/trim)
            return
        self._note_strikes(eid, corrupt)
        backend = dev.backend

        if (
            isinstance(backend, RAIS5)
            and len(corrupt) == 1
            and not backend.degraded
        ):
            # Parity path: rebuild the bad member's pieces from the
            # n-1 survivors, then re-place the extent.
            bad_dev, keys = corrupt[0]
            bad_bytes = sum(
                bad_dev.ftl.extent_size(k) or 0 for k in keys
            ) or stored
            self._seq += 1
            skey = ("SCRUB", self._seq)
            for member in backend.devices:
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
        if not isinstance(backend, RAIS5) or backend.degraded:
            return  # no parity, or a missing member to recompute it from
        budget = max(1, ENTRIES_PER_TICK // 8)
        members = backend.devices
        for member in members:
            if member.latent is None:
                continue
            for row in member.latent.corrupt_parity_rows():
                if budget <= 0:
                    return
                budget -= 1
                self._repair_parity_row(member, row, members)

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
        takes several sweeps to land must not turn into ``RETIRE_THRESHOLD``
        strikes on its own.
        """
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
                if self._strikes[sk] == RETIRE_THRESHOLD:
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
            f"{s.parity_repairs} repaired, "
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
                "entries_per_tick": ENTRIES_PER_TICK,
                "max_outstanding": MAX_OUTSTANDING,
                "retire_threshold": RETIRE_THRESHOLD,
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
