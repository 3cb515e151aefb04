"""Simulated flash SSD.

Combines three things the paper's evaluation depends on:

1. **A service-time model linear in request size** (paper Fig 1): each
   request costs a fixed controller overhead plus bytes divided by the
   effective read/write bandwidth.  This is why compression helps — a
   1.5 KB compressed write is physically faster than the 4 KB original.
2. **A FIFO request queue**: bursts that arrive faster than the device
   drains them accumulate queueing delay, the effect that punishes slow
   compression during high-intensity periods (Fig 10).
3. **Garbage-collection stalls**: the embedded
   :class:`~repro.flash.ftl.ExtentFTL` tracks live data; when GC runs,
   its relocation/erase work is charged to the triggering request, so
   writing less (compression!) visibly reduces GC interference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Protocol, Sequence, Tuple

from repro.faults.plan import (
    DeviceFailedError,
    FaultInjector,
    ReadFaultError,
)
from repro.flash.ftl import ExtentFTL, FlashCost
from repro.flash.geometry import (
    NandGeometry,
    NandTiming,
    X25E_GEOMETRY,
    X25E_TIMING,
)
from repro.sim.engine import Simulator
from repro.sim.events import Emitter
from repro.sim.queueing import Server

__all__ = ["SimulatedSSD", "StorageBackend", "DeviceStats"]


class StorageBackend(Protocol):
    """What the EDC layer requires of the device below it.

    ``on_error`` receives the exception when the request cannot be
    completed (retry budget exhausted, device failed).  Backends that
    cannot fail may ignore it; callers that pass ``None`` accept that an
    unrecoverable fault raises out of the simulation loop instead.
    ``stream`` selects a write frontier on backends with multi-stream
    placement (hot/cold separation); the others ignore it.

    ``devices`` lists the backends one level down (an array's members,
    in slot order; an empty tuple on a single device):
    :func:`~repro.flash.introspect.members_of` walks it.
    ``latent_corrupt(key)`` answers whether latent media errors rotted
    the stored data of ``key`` (always ``False`` on media without a
    latent-error model).
    """

    devices: Sequence["StorageBackend"]

    def submit_write(
        self,
        lba: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        key: Optional[Hashable] = None,
        stream: int = 0,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None: ...

    def submit_read(
        self,
        lba: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        key: Optional[Hashable] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None: ...

    def trim(self, key: Hashable) -> bool: ...

    def latent_corrupt(self, key: Hashable) -> bool: ...


@dataclass
class DeviceStats:
    """Per-device operation and byte counters."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    gc_stall_time: float = 0.0


class SimulatedSSD:
    """One flash SSD: FTL + FIFO queue + linear service-time model."""

    #: a single device: no members beneath it
    devices: Tuple[()] = ()

    def __init__(
        self,
        sim: Simulator,
        name: str = "ssd0",
        geometry: NandGeometry = X25E_GEOMETRY,
        timing: NandTiming = X25E_TIMING,
        gc_enabled: bool = True,
        n_streams: int = 1,
    ) -> None:
        self.sim = sim
        self.name = name
        self.geometry = geometry
        self.timing = timing
        self.gc_enabled = gc_enabled
        self.ftl = ExtentFTL(geometry, n_streams=n_streams)
        self.queue = Server(sim, name=f"{name}.queue")
        self.stats = DeviceStats()
        #: ``write_service``: ``(key, service_seconds, gc_stall_seconds)``
        #: emitted synchronously at a write's submit — the service value
        #: includes the stall, matching the queued job's service time
        self.events = Emitter("ssd")
        #: fault oracle installed by :meth:`repro.faults.FaultPlan.arm`;
        #: ``None`` draws no fault and adds no latency spike
        self.injector: Optional[FaultInjector] = None
        #: whole-device failure flag — set by :meth:`fail_now`, after which
        #: every submission (and in-flight read completion) errors
        self.failed = False
        #: optional :class:`~repro.faults.latent.LatentErrorModel`
        #: installed by :meth:`repro.faults.FaultPlan.arm`; ``None``
        #: (the default) keeps every hook below a single ``is None``
        #: check and the replay bit-identical to the seed.
        self.latent = None

    # ------------------------------------------------------------------
    # fault machinery
    # ------------------------------------------------------------------
    def fail_now(self) -> None:
        """Fail the whole device, effective immediately.

        New submissions are rejected with :class:`DeviceFailedError` and
        reads still in the queue fail on completion (their data is gone);
        writes already accepted are considered programmed.  Idempotent.
        """
        if self.failed:
            return
        self.failed = True
        if self.injector is not None:
            self.injector.stats.device_failures += 1

    def _report_error(
        self,
        exc: BaseException,
        on_error: Optional[Callable[[BaseException], None]],
    ) -> None:
        """Deliver ``exc`` to ``on_error`` as a deferred event.

        Deferral (not a synchronous callback) keeps error delivery from
        re-entering a caller that is still planning a compound request —
        e.g. RAIS5 mid-way through issuing a stripe.  Without a handler
        the fault is unhandled by design and raises out of the event loop.
        """
        if on_error is None:
            raise exc
        self.sim.defer(lambda: on_error(exc))

    # ------------------------------------------------------------------
    # pure timing helpers (used directly by the Fig 1 microbenchmark)
    # ------------------------------------------------------------------
    def service_read_time(self, nbytes: int) -> float:
        """Device-occupancy seconds for a read of ``nbytes`` (no queueing)."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes!r}")
        return self.timing.read_overhead_s + nbytes / self.timing.read_bytes_per_s

    def service_write_time(self, nbytes: int) -> float:
        """Device-occupancy seconds for a write of ``nbytes`` (no queueing/GC)."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes!r}")
        return self.timing.write_overhead_s + nbytes / self.timing.write_bytes_per_s

    def gc_time(self, cost: FlashCost) -> float:
        """Seconds of device time consumed by the GC part of ``cost``."""
        page = self.geometry.page_size
        pages_moved = math.ceil(cost.moved_bytes / page) if cost.moved_bytes else 0
        move_us = pages_moved * (
            self.timing.t_read_page_us + self.timing.t_program_page_us
        )
        erase_us = cost.erases * self.timing.t_erase_block_us
        return (move_us + erase_us) * 1e-6

    # ------------------------------------------------------------------
    # backend protocol
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
        """Queue a write of ``nbytes`` stored under ``key`` (default: ``lba``).

        ``stream`` selects the FTL write frontier when the device was
        built with ``n_streams > 1`` (hot/cold separation).  An injected
        program failure is absorbed here: the bad block is retired, its
        live data relocated, and the reprogram + relocation time charged
        to this request — the caller only sees extra latency.
        """
        if key is None:
            key = lba
        if self.failed:
            self._report_error(
                DeviceFailedError(f"{self.name}: write {key!r} to failed device"),
                on_error,
            )
            return
        cost = self.ftl.write(key, nbytes, stream=stream)
        if self.latent is not None:
            self.latent.note_write(key)
        service = self.service_write_time(nbytes)
        stall = 0.0
        if self.gc_enabled and cost.erases:
            stall = self.gc_time(cost)
            service += stall
            self.stats.gc_stall_time += stall
        inj = self.injector
        if inj is not None:
            service += inj.latency_spike()
            if inj.roll_program_fault():
                service += self._absorb_program_fault(key, nbytes)
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        if self.events.subs:
            self.events.emit("write_service", key, service, stall)
        self.queue.submit(
            service,
            on_complete=(None if on_complete is None else (lambda job: on_complete())),
            tag=("W", key),
        )

    def _absorb_program_fault(self, key: Hashable, nbytes: int) -> float:
        """Remap-and-retire after a program failure; returns extra seconds.

        The block that just took the program is retired (its live
        extents, including this write, relocate to a fresh block) and the
        data is reprogrammed — one extra page-program pass plus the
        relocation/erase-free retirement cost.  Host bytes are *not*
        charged again: the FTL already accounted this write once.
        """
        blocks = self.ftl.blocks_of(key)
        if not blocks:  # extent vanished (e.g. zero-byte write): nothing to retire
            return 0.0
        rcost = self.ftl.retire_block(blocks[-1])
        self.injector.stats.blocks_retired += 1
        return self.service_write_time(nbytes) + self.gc_time(rcost)

    def submit_read(
        self,
        lba: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        key: Optional[Hashable] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        """Queue a read of ``nbytes``.

        Reads of never-written keys are permitted (a real device returns
        zero-filled sectors); only the transfer is modelled.  With a
        fault injector attached, a transient read fault triggers bounded
        exponential-backoff retries; only an exhausted retry budget (or a
        failed device) reaches ``on_error``.
        """
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        k = key if key is not None else lba
        if self.latent is not None:
            self.latent.note_read(k)
        self._read_attempt(k, self.service_read_time(nbytes), 0, on_complete, on_error)

    def _read_attempt(
        self,
        key: Hashable,
        service: float,
        attempt: int,
        on_complete: Optional[Callable[[], None]],
        on_error: Optional[Callable[[BaseException], None]],
    ) -> None:
        """One read attempt; with an injector, retries itself after backoff
        on a fault.  Without one it draws nothing and adds no spike."""
        if self.failed:  # at submit, or during the backoff wait
            self._report_error(
                DeviceFailedError(f"{self.name}: read {key!r} from failed device"),
                on_error,
            )
            return
        inj = self.injector

        def _done(job) -> None:
            if self.failed:  # failed while the read was queued
                self._report_error(
                    DeviceFailedError(
                        f"{self.name}: device failed mid-read of {key!r}"
                    ),
                    on_error,
                )
                return
            if inj is not None and inj.roll_read_fault(
                self.ftl.max_wear_of(key) if inj.plan.wear_ber_per_pe > 0.0 else 0
            ):
                if attempt < inj.max_read_retries:
                    inj.stats.read_retries += 1
                    self.sim.schedule(
                        inj.backoff(attempt),
                        lambda: self._read_attempt(
                            key, service, attempt + 1, on_complete, on_error
                        ),
                    )
                else:
                    inj.stats.reads_unrecovered += 1
                    self._report_error(
                        ReadFaultError(
                            f"{self.name}: read {key!r} failed after "
                            f"{attempt + 1} attempts"
                        ),
                        on_error,
                    )
                return
            if inj is not None and attempt > 0:
                inj.stats.reads_recovered += 1
            if on_complete is not None:
                on_complete()

        self.queue.submit(
            service if inj is None else service + inj.latency_spike(),
            on_complete=_done, tag=("R", key),
        )

    def trim(self, key: Hashable) -> bool:
        """Invalidate the stored extent for ``key`` (no queue time charged)."""
        if self.latent is not None:
            self.latent.note_trim(key)
        return self.ftl.trim(key)

    def latent_corrupt(self, key: Hashable) -> bool:
        """True if latent media errors corrupted the stored data of ``key``."""
        return self.latent is not None and self.latent.is_corrupt(key)

    # ------------------------------------------------------------------
    def utilization(self) -> float:
        return self.queue.utilization()

    def write_amplification(self) -> float:
        return self.ftl.stats.write_amplification()
