"""RAIS — Redundant Arrays of Independent SSDs (paper §IV-B, Fig 11).

The paper validates EDC on a software RAID-5 array of five X25-E SSDs
("RAIS5").  This module provides:

- :class:`RAIS0` — striping without redundancy; a request is split on
  stripe-unit boundaries and sub-requests proceed in parallel on their
  devices, completing when the slowest finishes.
- :class:`RAIS5` — block-interleaved distributed parity.  Small writes
  pay the classic read-modify-write penalty (read old data + old parity,
  write new data + new parity); writes that cover a full stripe row skip
  the reads and write data plus computed parity directly.

Both classes implement the same :class:`~repro.flash.ssd.StorageBackend`
protocol as a single SSD, so the EDC layer is oblivious to which it
drives — exactly the paper's claim that EDC "directly controls the
underlying flash-based storage system that can be either a single SSD
[or] an SSD-based disk array".

Fault tolerance
---------------
A member error (a read that exhausted its retry budget, or a whole
device failure) is *absorbed* by RAIS5 as long as it is the array's
first: the member is marked failed, the array enters **degraded mode**
(reads reconstruct from the surviving ``n-1`` units, writes fold lost
units into parity) and — when a ``spare_factory`` is installed, e.g. by
:meth:`repro.faults.FaultPlan.attach` — a **background rebuild** is
scheduled as simulation events: rows are reconstructed in batches whose
I/O contends with foreground traffic through the member queues.  Only a
second concurrent failure is unrecoverable; it surfaces as a typed
:class:`ArrayError` through ``on_error`` (or raises when no handler was
given — a failed sub-I/O never silently strands its ``on_complete``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence

from repro.flash.ssd import SimulatedSSD

__all__ = ["RAIS0", "RAIS5", "ArrayStats", "ArrayError"]


class ArrayError(RuntimeError):
    """An array request (or rebuild) failed unrecoverably."""


@dataclass
class ArrayStats:
    reads: int = 0
    writes: int = 0
    rmw_writes: int = 0
    full_stripe_writes: int = 0
    degraded_reads: int = 0
    degraded_writes: int = 0
    rebuilt_rows: int = 0
    #: member failures the array absorbed (entered degraded mode)
    member_failures: int = 0
    #: completed rebuilds (array returned to non-degraded)
    rebuilds: int = 0
    #: requests lost to a second concurrent fault
    unrecovered_reads: int = 0
    unrecovered_writes: int = 0


class _Barrier:
    """Invokes ``on_complete`` after ``count`` sub-completions.

    Sub-requests that fail call :meth:`fail` instead of :meth:`arrive`:
    the slot still counts as finished (the barrier drains), but
    ``on_complete`` is suppressed and the *first* failure is delivered
    to ``on_error`` — or raised, so an unhandled sub-I/O failure can
    never strand the compound request silently.  :meth:`add` grows the
    expected count when recovery replaces one sub-request with several
    (e.g. a reconstruction read fanning out to the survivors).
    """

    def __init__(
        self,
        count: int,
        on_complete: Optional[Callable[[], None]],
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        if count <= 0:
            raise ValueError(f"barrier count must be positive: {count!r}")
        self.remaining = count
        self.on_complete = on_complete
        self.on_error = on_error
        self.error: Optional[BaseException] = None

    def add(self, count: int) -> None:
        """Expect ``count`` additional arrivals."""
        if count < 0:
            raise ValueError(f"cannot add a negative count: {count!r}")
        self.remaining += count

    def arrive(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise RuntimeError("barrier over-released")
        if self.remaining == 0 and self.error is None and self.on_complete is not None:
            self.on_complete()

    def fail(self, exc: BaseException) -> None:
        """One sub-request failed; drains the slot and reports the first."""
        first = self.error is None
        if first:
            self.error = exc
        self.remaining -= 1
        if self.remaining < 0:
            raise RuntimeError("barrier over-released")
        if first:
            if self.on_error is None:
                raise exc
            self.on_error(exc)


def _split_units(lba: int, nbytes: int, unit: int) -> list[tuple[int, int, int]]:
    """Split ``[lba, lba+nbytes)`` on ``unit`` boundaries.

    Returns ``(unit_index, offset_in_unit, length)`` triples.
    """
    if nbytes <= 0:
        raise ValueError(f"request size must be positive: {nbytes!r}")
    out = []
    pos = lba
    end = lba + nbytes
    while pos < end:
        uidx = pos // unit
        off = pos - uidx * unit
        length = min(unit - off, end - pos)
        out.append((uidx, off, length))
        pos += length
    return out


class RAIS0:
    """Striping (RAID-0) over ``devices`` with ``stripe_unit``-byte units.

    No redundancy: any member error is unrecoverable and propagates as
    an :class:`ArrayError` through ``on_error`` (or raises).
    """

    def __init__(self, devices: Sequence[SimulatedSSD], stripe_unit: int = 4096) -> None:
        if len(devices) < 2:
            raise ValueError("RAIS0 needs at least 2 devices")
        if stripe_unit <= 0:
            raise ValueError(f"stripe_unit must be positive: {stripe_unit!r}")
        self.devices = list(devices)
        self.stripe_unit = stripe_unit
        self.stats = ArrayStats()

    def _device_for(self, unit_idx: int) -> tuple[SimulatedSSD, int]:
        n = len(self.devices)
        dev = self.devices[unit_idx % n]
        local_unit = unit_idx // n
        return dev, local_unit

    def _member_error(self, barrier: _Barrier, op: str, exc: BaseException) -> None:
        if op == "read":
            self.stats.unrecovered_reads += 1
        else:
            self.stats.unrecovered_writes += 1
        barrier.fail(ArrayError(f"RAIS0 {op} lost (no redundancy): {exc}"))

    def submit_write(
        self,
        lba: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        key: Optional[Hashable] = None,
        stream: int = 0,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        parts = _split_units(lba, nbytes, self.stripe_unit)
        barrier = _Barrier(len(parts), on_complete, on_error)
        self.stats.writes += 1
        for i, (uidx, off, length) in enumerate(parts):
            dev, local_unit = self._device_for(uidx)
            sub_key = (key if key is not None else lba, i)
            dev.submit_write(
                local_unit * self.stripe_unit + off,
                length,
                on_complete=barrier.arrive,
                key=sub_key,
                on_error=lambda exc: self._member_error(barrier, "write", exc),
            )

    def submit_read(
        self,
        lba: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        key: Optional[Hashable] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        parts = _split_units(lba, nbytes, self.stripe_unit)
        barrier = _Barrier(len(parts), on_complete, on_error)
        self.stats.reads += 1
        for i, (uidx, off, length) in enumerate(parts):
            dev, local_unit = self._device_for(uidx)
            dev.submit_read(
                local_unit * self.stripe_unit + off,
                length,
                on_complete=barrier.arrive,
                key=(key if key is not None else lba, i),
                on_error=lambda exc: self._member_error(barrier, "read", exc),
            )

    def trim(self, key: Hashable) -> bool:
        return _trim_pieces(self.devices, key)

    def latent_corrupt(self, key: Hashable) -> bool:
        """True if any member holds a latently corrupted piece of ``key``."""
        return _latent_corrupt_pieces(self.devices, key)


def _latent_corrupt_pieces(devices, base: Hashable) -> bool:
    """Does any device's latent model flag ``base`` or a sub-key of it?

    Striped backends store entry ``base`` as sub-keys ``(base, i)``;
    one corrupted piece corrupts the whole decompressed extent.
    """
    return any(
        dev.latent is not None and dev.latent.has_corrupt_related(base)
        for dev in devices
    )


def _trim_pieces(devices, key: Hashable) -> bool:
    """Trim sub-extents ``(key, 0..)`` wherever they live in the array.

    Pieces are distributed round-robin, so each index must be probed on
    every device; probing stops at the first index no device holds.
    """
    found = False
    i = 0
    while True:
        hit = False
        for dev in devices:
            if dev.trim((key, i)):
                hit = True
                found = True
                break
        if not hit:
            return found
        i += 1


class RAIS5:
    """Block-interleaved distributed parity (RAID-5) over ``devices``.

    Data unit ``d`` lives in stripe row ``d // (n-1)``; the parity unit
    of row ``r`` rotates over devices as ``n - 1 - (r % n)`` (right-
    asymmetric layout).  Data units of a row occupy the remaining
    devices in order.
    """

    def __init__(self, devices: Sequence[SimulatedSSD], stripe_unit: int = 4096) -> None:
        if len(devices) < 3:
            raise ValueError("RAIS5 needs at least 3 devices")
        if stripe_unit <= 0:
            raise ValueError(f"stripe_unit must be positive: {stripe_unit!r}")
        self.devices = list(devices)
        self.stripe_unit = stripe_unit
        self.sim = devices[0].sim
        self.stats = ArrayStats()
        #: index of the (at most one) failed member, or None
        self._failed: Optional[int] = None
        #: stripe rows that hold data (for rebuild coverage)
        self._touched_rows: set[int] = set()
        #: rows already reconstructed onto the replacement while the
        #: array is still formally degraded (event-driven rebuild)
        self._rebuilt_rows: set[int] = set()
        #: builds a replacement SSD when a member fails; installing one
        #: (see :meth:`repro.faults.FaultPlan.attach`) arms auto-rebuild
        self.spare_factory: Optional[Callable[[], SimulatedSSD]] = None
        #: seconds between detecting a failure and starting the rebuild
        self.rebuild_delay_s: float = 0.01
        #: rows reconstructed per rebuild batch
        self.rebuild_batch_rows: int = 8
        #: ``[start, end]`` simulation-time intervals the array spent
        #: degraded (``end`` is ``None`` while a window is still open)
        self.degraded_windows: List[List[Optional[float]]] = []
        self._rebuild_pending = False

    # ------------------------------------------------------------------
    # failure handling (single-fault tolerance)
    # ------------------------------------------------------------------
    @property
    def failed_device(self) -> Optional[int]:
        return self._failed

    @property
    def degraded(self) -> bool:
        return self._failed is not None

    def _down(self, dev_idx: int, row: int) -> bool:
        """Is member ``dev_idx`` unusable for ``row``?

        During an event-driven rebuild the replacement already sits in
        the member slot; rows it has reconstructed are served normally
        while the rest still take the degraded paths.
        """
        return dev_idx == self._failed and row not in self._rebuilt_rows

    def fail_device(self, idx: int) -> None:
        """Mark one member failed; the array continues in degraded mode."""
        if not 0 <= idx < len(self.devices):
            raise ValueError(f"no device {idx} in a {len(self.devices)}-wide array")
        if self._failed is not None:
            raise ArrayError(
                f"device {self._failed} already failed; RAID-5 tolerates one fault"
            )
        self._mark_failed(idx)

    def _mark_failed(self, idx: int) -> None:
        self._failed = idx
        self._rebuilt_rows = set()
        self.stats.member_failures += 1
        self.degraded_windows.append([self.sim.now, None])
        if self.spare_factory is not None and not self._rebuild_pending:
            self._rebuild_pending = True
            self.sim.schedule(self.rebuild_delay_s, self._auto_rebuild)

    def _auto_rebuild(self) -> None:
        self._rebuild_pending = False
        if self._failed is None or self.spare_factory is None:
            return
        self.start_rebuild(self.spare_factory())

    def _member_error(self, idx: int) -> bool:
        """Absorb a member I/O error.  ``True`` when the array survives.

        The first failing member puts the array in degraded mode (and
        arms auto-rebuild); further errors from the *same* member are
        already covered.  An error from a second member is a double
        fault — RAID-5 cannot recover it.
        """
        if self._failed is not None:
            return idx == self._failed
        self._mark_failed(idx)
        return True

    def _close_degraded_window(self) -> None:
        if self.degraded_windows and self.degraded_windows[-1][1] is None:
            self.degraded_windows[-1][1] = self.sim.now

    def _validate_replacement(self, replacement: SimulatedSSD) -> None:
        """Reject replacements that cannot hold a member's contents."""
        if self._failed is None:
            raise ArrayError("no failed device to rebuild")
        survivor = self.devices[0 if self._failed != 0 else 1]
        g, h = replacement.geometry, survivor.geometry
        if g.page_size != h.page_size or g.block_bytes != h.block_bytes:
            raise ArrayError(
                f"replacement geometry mismatch: page {g.page_size}/block "
                f"{g.block_bytes} vs member page {h.page_size}/block {h.block_bytes}"
            )
        if g.logical_bytes < h.logical_bytes:
            raise ArrayError(
                f"replacement too small: {g.logical_bytes} < member "
                f"{h.logical_bytes} logical bytes"
            )
        if replacement.failed:
            raise ArrayError(f"replacement {replacement.name} is already failed")
        if any(replacement is d for d in self.devices):
            raise ArrayError(f"replacement {replacement.name} is already a member")

    def _swap_in(self, replacement: SimulatedSSD) -> int:
        """Put a validated ``replacement`` in the failed slot; returns the slot.

        Observers subscribed member by member when they bound to the
        stack, so the outgoing member's handlers (allocator retirement
        accounting, telemetry, device health) move to the spare with the
        slot: its service, GC and retirement events are the array's now.
        """
        failed = self._failed
        outgoing = self.devices[failed]
        for old, new in (
            (outgoing.events, replacement.events),
            (outgoing.ftl.events, replacement.ftl.events),
            (outgoing.queue.events, replacement.queue.events),
        ):
            for kind, handlers in old.subs.items():
                for handler in handlers:
                    new.subscribe(kind, handler)
        self.devices[failed] = replacement
        return failed

    def rebuild(
        self,
        replacement: SimulatedSSD,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """Replace the failed member and reconstruct its contents.

        For every touched stripe row, the surviving ``n-1`` units are
        read and the missing unit is written to ``replacement`` (XOR
        reconstruction).  Completion fires when every row is rebuilt.
        All rows are issued at once; for a rebuild whose I/O is paced
        against foreground traffic use :meth:`start_rebuild`.
        """
        self._validate_replacement(replacement)
        failed = self._swap_in(replacement)
        rows = sorted(self._touched_rows)
        self._failed = None
        self._rebuilt_rows = set()
        self._close_degraded_window()
        self.stats.rebuilds += 1
        if not rows:
            if on_complete is not None:
                on_complete()
            return
        n = len(self.devices)
        barrier = _Barrier(len(rows) * n, on_complete)
        for row in rows:
            local = row * self.stripe_unit
            for idx, dev in enumerate(self.devices):
                if idx == failed:
                    continue
                dev.submit_read(
                    local, self.stripe_unit, on_complete=barrier.arrive,
                    key=("RB", row, idx),
                )
            replacement.submit_write(
                local, self.stripe_unit, on_complete=barrier.arrive,
                key=("RB", row),
            )
            self.stats.rebuilt_rows += 1

    def start_rebuild(
        self,
        replacement: SimulatedSSD,
        on_complete: Optional[Callable[[], None]] = None,
        rows_per_batch: Optional[int] = None,
    ) -> None:
        """Event-driven rebuild: reconstruct rows in contending batches.

        The replacement is installed immediately but the array stays
        degraded row by row: a row's reads/writes switch to the normal
        path the moment that row's reconstructed unit lands on the
        replacement.  Each batch is ``rows_per_batch`` rows of
        (``n-1`` survivor reads → 1 replacement write) issued through
        the member queues, so rebuild I/O genuinely contends with
        foreground traffic; the next batch starts when the previous one
        completes, and rows touched by foreground writes *during* the
        rebuild are picked up by later batches.  When no un-rebuilt row
        remains the array returns to non-degraded and ``on_complete``
        fires.
        """
        self._validate_replacement(replacement)
        batch = self.rebuild_batch_rows if rows_per_batch is None else rows_per_batch
        if batch < 1:
            raise ValueError(f"rows_per_batch must be >= 1: {batch!r}")
        failed = self._swap_in(replacement)

        def _finish() -> None:
            self._failed = None
            self._rebuilt_rows = set()
            self._close_degraded_window()
            self.stats.rebuilds += 1
            if on_complete is not None:
                on_complete()

        def _next_batch() -> None:
            pending = sorted(self._touched_rows - self._rebuilt_rows)
            if not pending:
                _finish()
                return
            chunk = pending[:batch]
            barrier = _Barrier(len(chunk), _next_batch)
            for row in chunk:
                self._rebuild_row(row, replacement, failed, barrier)

        _next_batch()

    def _rebuild_row(
        self,
        row: int,
        replacement: SimulatedSSD,
        failed_idx: int,
        barrier: _Barrier,
    ) -> None:
        """Reconstruct one row: read the survivors, write the lost unit.

        A member error here is a second concurrent fault (the rebuild
        *is* the recovery from the first) and raises :class:`ArrayError`
        through the batch barrier.
        """
        local = row * self.stripe_unit
        survivors = [i for i in range(len(self.devices)) if i != failed_idx]
        reads_left = [len(survivors)]

        def _row_done() -> None:
            self._rebuilt_rows.add(row)
            self.stats.rebuilt_rows += 1
            barrier.arrive()

        def _fail(exc: BaseException) -> None:
            barrier.fail(ArrayError(f"rebuild of row {row} hit a second fault: {exc}"))

        def _read_done() -> None:
            reads_left[0] -= 1
            if reads_left[0] == 0:
                replacement.submit_write(
                    local, self.stripe_unit, on_complete=_row_done,
                    key=("RB", row), on_error=_fail,
                )

        for idx in survivors:
            self.devices[idx].submit_read(
                local, self.stripe_unit, on_complete=_read_done,
                key=("RB", row, idx), on_error=_fail,
            )

    # ------------------------------------------------------------------
    def _layout(self, unit_idx: int) -> tuple[int, int, int]:
        """Map data unit index -> (row, data_device, parity_device)."""
        n = len(self.devices)
        row = unit_idx // (n - 1)
        pos = unit_idx % (n - 1)
        parity_dev = n - 1 - (row % n)
        data_dev = pos if pos < parity_dev else pos + 1
        return row, data_dev, parity_dev

    @property
    def data_devices(self) -> int:
        return len(self.devices) - 1

    def _row_of(self, unit_idx: int) -> int:
        return unit_idx // self.data_devices

    # ------------------------------------------------------------------
    def submit_write(
        self,
        lba: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        key: Optional[Hashable] = None,
        stream: int = 0,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        parts = _split_units(lba, nbytes, self.stripe_unit)
        self.stats.writes += 1
        # Group parts by stripe row to detect full-stripe writes.
        rows: dict[int, list[tuple[int, int, int, int]]] = {}
        for i, (uidx, off, length) in enumerate(parts):
            row = self._row_of(uidx)
            rows.setdefault(row, []).append((i, uidx, off, length))
            self._touched_rows.add(row)
        total_ops = 0
        plans: list[tuple[str, list[tuple[int, int, int, int]], int]] = []
        for row, row_parts in rows.items():
            parity_dev = len(self.devices) - 1 - (row % len(self.devices))
            full = (
                len(row_parts) == self.data_devices
                and all(off == 0 and ln == self.stripe_unit for _, _, off, ln in row_parts)
            )
            if full:
                # data writes + one parity write, no reads; a down member
                # (data or parity) is simply skipped.
                plans.append(("full", row_parts, row))
                total_ops += sum(
                    1 for _, uidx, _, _ in row_parts
                    if not self._down(self._layout(uidx)[1], row)
                )
                total_ops += 0 if self._down(parity_dev, row) else 1
            else:
                for _, uidx, _, _ in row_parts:
                    data_dev = self._layout(uidx)[1]
                    if self._down(data_dev, row):
                        # Degraded write to the lost member: read the
                        # surviving data units, write new parity only.
                        total_ops += (len(self.devices) - 2) + 1
                    elif self._down(parity_dev, row):
                        # Parity lost: plain data write, no RMW.
                        total_ops += 1
                    else:
                        # Normal RMW: 2 reads + 2 writes.
                        total_ops += 4
                plans.append(("rmw", row_parts, row))
        barrier = _Barrier(total_ops, on_complete, on_error)
        base_key = key if key is not None else lba
        for kind, row_parts, row in plans:
            parity_dev_idx = len(self.devices) - 1 - (row % len(self.devices))
            if kind == "full":
                self.stats.full_stripe_writes += 1
                for i, uidx, off, length in row_parts:
                    _, data_dev, _ = self._layout(uidx)
                    if self._down(data_dev, row):
                        self.stats.degraded_writes += 1
                        continue
                    self.devices[data_dev].submit_write(
                        row * self.stripe_unit + off,
                        length,
                        on_complete=barrier.arrive,
                        key=(base_key, i),
                        on_error=self._write_error(data_dev, barrier),
                    )
                if not self._down(parity_dev_idx, row):
                    self.devices[parity_dev_idx].submit_write(
                        row * self.stripe_unit,
                        self.stripe_unit,
                        on_complete=barrier.arrive,
                        key=("P", row),
                        on_error=self._write_error(parity_dev_idx, barrier),
                    )
            else:
                self.stats.rmw_writes += 1
                for i, uidx, off, length in row_parts:
                    _, data_dev, _ = self._layout(uidx)
                    local = row * self.stripe_unit + off
                    dkey = (base_key, i)
                    pkey = ("P", row)
                    if self._down(data_dev, row):
                        self._degraded_unit_write(
                            row, local, length, pkey, parity_dev_idx, barrier
                        )
                        continue
                    if self._down(parity_dev_idx, row):
                        self.stats.degraded_writes += 1
                        self.devices[data_dev].submit_write(
                            local, length, on_complete=barrier.arrive, key=dkey,
                            on_error=self._write_error(data_dev, barrier),
                        )
                        continue
                    self._rmw_unit_write(
                        row, local, length, data_dev, parity_dev_idx,
                        dkey, pkey, barrier,
                    )

    def _write_error(
        self, dev_idx: int, barrier: _Barrier
    ) -> Callable[[BaseException], None]:
        """Error handler for a member write: absorb or declare data loss.

        An absorbed failure means the unit's data survives only via
        parity — the write completes degraded.  A second concurrent
        fault is unrecoverable.
        """

        def _on_error(exc: BaseException) -> None:
            if self._member_error(dev_idx):
                self.stats.degraded_writes += 1
                barrier.arrive()
            else:
                self.stats.unrecovered_writes += 1
                barrier.fail(ArrayError(f"write lost (double fault): {exc}"))

        return _on_error

    def _rmw_unit_write(
        self,
        row: int,
        local: int,
        length: int,
        data_dev: int,
        parity_dev: int,
        dkey: Hashable,
        pkey: Hashable,
        barrier: _Barrier,
    ) -> None:
        """Read-modify-write one unit: 2 reads, then 2 writes.

        The read phase tolerates a first member failure: a lost parity
        read downgrades to a plain data write; a lost data read folds
        the new data into parity via the degraded path (the barrier is
        grown to cover the extra survivor reads).
        """
        reads_left = [2]
        lost = {"data": False, "parity": False}

        def _proceed() -> None:
            if lost["data"]:
                # Fold into parity: (n-2) survivor reads + 1 parity
                # write replace the 2 write slots this unit still holds.
                extra = (len(self.devices) - 2) + 1 - 2
                if extra > 0:
                    barrier.add(extra)
                self._degraded_unit_write(
                    row, local, length, pkey, parity_dev, barrier
                )
                return
            self.devices[data_dev].submit_write(
                local, length, on_complete=barrier.arrive, key=dkey,
                on_error=self._write_error(data_dev, barrier),
            )
            if lost["parity"] or self._down(parity_dev, row):
                self.stats.degraded_writes += 1
                barrier.arrive()
                return
            self.devices[parity_dev].submit_write(
                local, length, on_complete=barrier.arrive, key=pkey,
                on_error=self._write_error(parity_dev, barrier),
            )

        def _read_done() -> None:
            barrier.arrive()
            reads_left[0] -= 1
            if reads_left[0] == 0:
                _proceed()

        def _read_error(which: str, dev_idx: int) -> Callable[[BaseException], None]:
            def _on_error(exc: BaseException) -> None:
                if not self._member_error(dev_idx):
                    if which == "data":
                        self.stats.unrecovered_writes += 1
                    barrier.fail(ArrayError(f"RMW read lost (double fault): {exc}"))
                    reads_left[0] -= 1
                    return
                lost[which] = True
                _read_done()

            return _on_error

        self.devices[data_dev].submit_read(
            local, length, on_complete=_read_done, key=dkey,
            on_error=_read_error("data", data_dev),
        )
        self.devices[parity_dev].submit_read(
            local, length, on_complete=_read_done, key=pkey,
            on_error=_read_error("parity", parity_dev),
        )

    def _degraded_unit_write(
        self,
        row: int,
        local: int,
        length: int,
        pkey: Hashable,
        parity_dev: int,
        barrier: _Barrier,
    ) -> None:
        """Write whose data member is lost: fold the new data into parity.

        New parity = new data XOR surviving data units, so the surviving
        ``n-2`` data members are read and only parity is written.  Any
        member error in here is a second fault and fails the barrier.
        """
        self.stats.degraded_writes += 1
        n = len(self.devices)
        survivors = [
            idx for idx in range(n)
            if not self._down(idx, row) and idx != parity_dev
        ]
        reads_left = [len(survivors)]

        def _fail(exc: BaseException) -> None:
            self.stats.unrecovered_writes += 1
            barrier.fail(ArrayError(f"degraded write lost (double fault): {exc}"))

        def _read_done() -> None:
            barrier.arrive()
            reads_left[0] -= 1
            if reads_left[0] == 0:
                self.devices[parity_dev].submit_write(
                    local, length, on_complete=barrier.arrive, key=pkey,
                    on_error=_fail,
                )

        for idx in survivors:
            self.devices[idx].submit_read(
                local, length, on_complete=_read_done, key=("D", row, idx),
                on_error=_fail,
            )

    def submit_read(
        self,
        lba: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        key: Optional[Hashable] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        parts = _split_units(lba, nbytes, self.stripe_unit)
        self.stats.reads += 1
        total_ops = 0
        for uidx, _, _ in parts:
            row, data_dev, _ = self._layout(uidx)
            total_ops += (len(self.devices) - 1) if self._down(data_dev, row) else 1
        barrier = _Barrier(total_ops, on_complete, on_error)
        base_key = key if key is not None else lba
        for i, (uidx, off, length) in enumerate(parts):
            row, data_dev, _ = self._layout(uidx)
            local = row * self.stripe_unit + off
            if self._down(data_dev, row):
                self._reconstruct_read(row, local, length, barrier, extra=0)
                continue
            self.devices[data_dev].submit_read(
                local,
                length,
                on_complete=barrier.arrive,
                key=(base_key, i),
                on_error=self._read_error(data_dev, row, local, length, barrier),
            )

    def _read_error(
        self, dev_idx: int, row: int, local: int, length: int, barrier: _Barrier
    ) -> Callable[[BaseException], None]:
        """Error handler for a unit read: reconstruct from the survivors.

        The failing member's unit is recovered by reading every other
        member of the row and XORing — the original 1-op barrier slot is
        grown to cover the ``n-1`` survivor reads.  A second fault is
        unrecoverable.
        """

        def _on_error(exc: BaseException) -> None:
            if self._member_error(dev_idx):
                self._reconstruct_read(
                    row, local, length, barrier,
                    extra=len(self.devices) - 2,
                )
            else:
                self.stats.unrecovered_reads += 1
                barrier.fail(ArrayError(f"read lost (double fault): {exc}"))

        return _on_error

    def _reconstruct_read(
        self, row: int, local: int, length: int, barrier: _Barrier, extra: int
    ) -> None:
        """Fetch every surviving unit of ``row`` and XOR (degraded read).

        ``extra`` barrier slots are added first when this replaces an
        already-counted single-member read.
        """
        self.stats.degraded_reads += 1
        if extra > 0:
            barrier.add(extra)

        def _fail(exc: BaseException) -> None:
            self.stats.unrecovered_reads += 1
            barrier.fail(ArrayError(f"reconstruction read lost (double fault): {exc}"))

        for idx, dev in enumerate(self.devices):
            if self._down(idx, row):
                continue
            dev.submit_read(
                local, length, on_complete=barrier.arrive,
                key=("R", row, idx), on_error=_fail,
            )

    def trim(self, key: Hashable) -> bool:
        return _trim_pieces(self.devices, key)

    def latent_corrupt(self, key: Hashable) -> bool:
        """True if any member holds a latently corrupted piece of ``key``."""
        return _latent_corrupt_pieces(self.devices, key)
