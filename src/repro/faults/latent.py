"""Latent media-error models: retention loss and read disturb.

Unlike the instantaneous injectors of :mod:`repro.faults.plan` (which
fail an I/O *while it runs*), latent errors accumulate silently in
stored data and are only observable when something reads the affected
extent — exactly the failure shape a background scrubber exists to
catch before the host does.

Two schema-versioned models:

- :class:`RetentionLoss` — charge-leakage corruption: every occupied
  flash block accrues a per-tick corruption hazard that grows with the
  *age* of the data sitting in it and with the block's *erase count*
  (worn oxide leaks faster).  Driven by a simulator daemon armed by
  :meth:`repro.faults.plan.FaultPlan.attach`.
- :class:`ReadDisturb` — pass-through voltage stress: every
  ``reads_per_trigger`` reads landing in a block roll a corruption
  chance against a *neighbouring* block, scaled by the neighbour's
  wear.  Fed synchronously from the SSD's read path, so disturb
  pressure follows the real (folded) access pattern.

Corruption is tracked per stored *key* (the FTL's extent key), so it
travels with GC relocation — moving a corrupted page copies the
corrupted bits — and is cleared by overwrite or trim, which replace
the physical charge.  A corrupted extent stays *readable*: the device
read path surfaces it as a CRC mismatch
(:class:`~repro.core.device.IntegrityError`), not a
:class:`~repro.faults.plan.ReadFaultError`.

Determinism: each :class:`LatentErrorModel` draws from its own
``random.Random`` stream salted with :data:`LATENT_SALT` on top of the
per-device injector seed, so attaching latent models never perturbs
the existing injectors' draw sequences; with both probabilities zero
(or the models absent) no randomness is drawn at all and the replay is
bit-identical to the seed.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

__all__ = [
    "LATENT_SALT",
    "RetentionLoss",
    "ReadDisturb",
    "LatentStats",
    "LatentErrorModel",
]

#: XORed into the per-device injector seed so latent draws come from a
#: stream independent of the fault injectors'.
LATENT_SALT = 0x4C41544E  # "LATN"


@dataclass(frozen=True)
class RetentionLoss:
    """Charge-retention corruption hazard for occupied blocks.

    Per check tick of ``dt`` simulated seconds, an occupied block of
    age ``a`` and erase count ``e`` corrupts with probability::

        rate_per_s * (1 + age_factor * a) * (1 + wear_factor * e) * dt

    ``min_age_s`` grants fresh data a grace period (retention loss is a
    slow process; it also keeps hot, constantly-rewritten blocks out of
    the hazard pool).
    """

    rate_per_s: float = 0.0
    age_factor: float = 0.0
    wear_factor: float = 0.0
    check_interval_s: float = 0.05
    min_age_s: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_s < 0:
            raise ValueError(f"rate_per_s must be >= 0: {self.rate_per_s!r}")
        if self.age_factor < 0:
            raise ValueError(f"age_factor must be >= 0: {self.age_factor!r}")
        if self.wear_factor < 0:
            raise ValueError(f"wear_factor must be >= 0: {self.wear_factor!r}")
        if self.check_interval_s <= 0:
            raise ValueError(
                f"check_interval_s must be positive: {self.check_interval_s!r}"
            )
        if self.min_age_s < 0:
            raise ValueError(f"min_age_s must be >= 0: {self.min_age_s!r}")


@dataclass(frozen=True)
class ReadDisturb:
    """Read-disturb corruption of neighbouring blocks.

    Every ``reads_per_trigger``-th read landing in a block rolls its
    successor block (falling back to the predecessor at the device
    edge) for corruption with probability::

        corrupt_prob * (1 + wear_factor * neighbour_erase_count)
    """

    reads_per_trigger: int = 256
    corrupt_prob: float = 0.0
    wear_factor: float = 0.0

    def __post_init__(self) -> None:
        if self.reads_per_trigger <= 0:
            raise ValueError(
                f"reads_per_trigger must be positive: {self.reads_per_trigger!r}"
            )
        if not 0 <= self.corrupt_prob <= 1:
            raise ValueError(
                f"corrupt_prob must be in [0,1]: {self.corrupt_prob!r}"
            )
        if self.wear_factor < 0:
            raise ValueError(f"wear_factor must be >= 0: {self.wear_factor!r}")


class LatentStats:
    """Counters for one device's latent-error model."""

    FIELDS = (
        "retention_events",
        "disturb_triggers",
        "disturb_events",
        "corrupted_extents",
        "cleaned_extents",
    )

    def __init__(self) -> None:
        #: blocks struck by a retention-loss event
        self.retention_events = 0
        #: read-count thresholds crossed (each rolls one neighbour)
        self.disturb_triggers = 0
        #: neighbour blocks actually corrupted by a disturb roll
        self.disturb_events = 0
        #: extent keys ever marked corrupt (monotone)
        self.corrupted_extents = 0
        #: corrupt keys cleared by overwrite/trim (repair or host write)
        self.cleaned_extents = 0

    def as_dict(self) -> Dict[str, int]:
        return {f: getattr(self, f) for f in self.FIELDS}


class LatentErrorModel:
    """Per-device latent-error state machine (retention + read disturb).

    Holds the corrupt-key set that :meth:`is_corrupt` and the array
    aggregate :meth:`~repro.flash.raid.RAIS5.latent_corrupt` query on
    every mapped read, plus the birth/read-count bookkeeping the two
    hazard models need.  All hooks are synchronous bookkeeping — the
    model never schedules simulation events itself (the retention tick
    daemon is armed by ``FaultPlan.attach``).
    """

    def __init__(
        self,
        plan_seed: int,
        name: str,
        sim,
        ftl,
        retention: Optional[RetentionLoss] = None,
        read_disturb: Optional[ReadDisturb] = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.ftl = ftl
        self.retention = retention
        self.read_disturb = read_disturb
        self.rng = random.Random(
            (plan_seed << 32) ^ zlib.crc32(name.encode("utf-8")) ^ LATENT_SALT
        )
        self.stats = LatentStats()
        #: extent keys whose stored bits are currently corrupt
        self._corrupt: Set = set()
        #: block -> sim time its current residency began
        self._birth: Dict[int, float] = {}
        #: block -> reads since attach (read-disturb accumulator)
        self._reads: Dict[int, int] = {}
        self._last_tick = sim.now
        #: retention daemon handle (set by ``FaultPlan.arm``)
        self.tick_event = None
        self._quiesced = False

    # ------------------------------------------------------------------
    # queries (device read path / scrubber)
    # ------------------------------------------------------------------
    @property
    def corrupt_count(self) -> int:
        return len(self._corrupt)

    def is_corrupt(self, key) -> bool:
        return key in self._corrupt

    def has_corrupt_related(self, base) -> bool:
        """True if ``base`` or any of its array sub-keys is corrupt.

        Array backends store an entry ``base`` as sub-keys
        ``(base, i)`` (and parity as ``("P", row)``); a read of the
        entry is corrupt if any piece under it is.
        """
        if base in self._corrupt:
            return True
        return any(
            isinstance(k, tuple) and len(k) >= 1 and k[0] == base
            for k in self._corrupt
        )

    def corrupt_keys_of(self, base) -> List:
        """Every corrupt key belonging to entry ``base`` (incl. sub-keys)."""
        out = []
        for k in self._corrupt:
            if k == base or (
                isinstance(k, tuple) and len(k) >= 1 and k[0] == base
            ):
                out.append(k)
        return out

    def prune_dead(self) -> int:
        """Drop corrupt marks whose extent no longer exists on the FTL.

        Overwrite and trim clear marks synchronously via
        :meth:`note_write` / :meth:`note_trim`, but an extent can also
        vanish without either hook firing (e.g. the array rewrites an
        entry under a fresh id and the stale pieces are simply
        invalidated and erased by GC).  The corrupt charge is gone with
        the erased page, so the mark is vacuous — nothing can ever read
        it again.  Returns the number of marks dropped.
        """
        dead = [k for k in self._corrupt if not self.ftl.blocks_of(k)]
        for k in dead:
            self._corrupt.discard(k)
            self.stats.cleaned_extents += 1
        return len(dead)

    def corrupt_data_keys(self) -> List:
        """Corrupt data keys (scalar ids or ``(base, i)`` pieces), sorted.

        Excludes parity ``("P", row)`` and degraded-write ``("D", ...)``
        bookkeeping keys.  Sorted for deterministic sweep order.
        """
        out = [
            k for k in self._corrupt
            if isinstance(k, int)
            or (isinstance(k, tuple) and k and isinstance(k[0], int))
        ]
        return sorted(out, key=lambda k: k if isinstance(k, tuple) else (k,))

    def corrupt_parity_rows(self) -> List[int]:
        """Stripe rows whose parity piece ``("P", row)`` is corrupt.

        Parity keys belong to no mapping entry, so an entry-level scrub
        sweep never sees them; the scrubber's parity sweep repairs them
        separately.  Sorted for deterministic repair order (the corrupt
        set's iteration order is not stable across processes).
        """
        return sorted(
            k[1] for k in self._corrupt
            if isinstance(k, tuple) and len(k) == 2 and k[0] == "P"
            and isinstance(k[1], int)
        )

    # ------------------------------------------------------------------
    # SSD hooks (synchronous, no simulation events)
    # ------------------------------------------------------------------
    def note_write(self, key) -> None:
        """An overwrite re-programs the extent: corruption is replaced."""
        if key in self._corrupt:
            self._corrupt.discard(key)
            self.stats.cleaned_extents += 1

    def note_trim(self, key) -> None:
        """A trim invalidates the extent: nothing left to be corrupt."""
        if key in self._corrupt:
            self._corrupt.discard(key)
            self.stats.cleaned_extents += 1

    def quiesce(self) -> None:
        """Stop generating new corruption (chaos drain windows).

        Cancels the retention tick daemon and mutes read-disturb rolls,
        so the scrubber's own verify reads cannot regenerate corruption
        while it drains the backlog after the trace ends.  Existing
        corrupt marks are untouched.
        """
        self._quiesced = True
        if self.tick_event is not None:
            self.tick_event.cancel()
            self.tick_event = None

    def note_read(self, key) -> None:
        """Accumulate read-disturb pressure from one read of ``key``."""
        dis = self.read_disturb
        if dis is None or dis.corrupt_prob <= 0 or self._quiesced:
            return
        blocks = self.ftl.blocks_of(key)
        if not blocks:
            return
        erases = self.ftl.collector.stats.erase_counts
        n_blocks = self.ftl.n_blocks
        for b in blocks:
            n = self._reads.get(b, 0) + 1
            self._reads[b] = n
            if n % dis.reads_per_trigger:
                continue
            self.stats.disturb_triggers += 1
            neighbour = b + 1 if b + 1 < n_blocks else b - 1
            if neighbour < 0 or not self.ftl.block_valid_bytes(neighbour):
                continue
            p = dis.corrupt_prob * (
                1.0 + dis.wear_factor * erases.get(neighbour, 0)
            )
            if self.rng.random() < p:
                self.stats.disturb_events += 1
                self._corrupt_block(neighbour)

    # ------------------------------------------------------------------
    # retention daemon tick (armed by FaultPlan.attach via sim.every)
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One retention-hazard sweep over the occupied blocks."""
        ret = self.retention
        now = self.sim.now
        dt = now - self._last_tick
        self._last_tick = now
        if ret is None or ret.rate_per_s <= 0 or dt <= 0 or self._quiesced:
            return
        erases = self.ftl.collector.stats.erase_counts
        live = self.ftl.live_blocks()
        live_set = set(live)
        for b in list(self._birth):
            if b not in live_set:
                del self._birth[b]
        for b in live:
            birth = self._birth.get(b)
            if birth is None:
                self._birth[b] = now
                continue
            age = now - birth
            if age < ret.min_age_s:
                continue
            p = (
                ret.rate_per_s
                * (1.0 + ret.age_factor * age)
                * (1.0 + ret.wear_factor * erases.get(b, 0))
                * dt
            )
            if p <= 0:
                continue
            if self.rng.random() < p:
                self.stats.retention_events += 1
                self._corrupt_block(b)

    # ------------------------------------------------------------------
    def _corrupt_block(self, block: int) -> None:
        """Mark every extent with live bytes in ``block`` as corrupt."""
        for key in self.ftl.live_keys(block):
            if key not in self._corrupt:
                self._corrupt.add(key)
                self.stats.corrupted_extents += 1
