"""Simulated hard disk drive (paper §VI future work #2).

The paper plans to evaluate EDC "on other storage devices, such as
HDD-based ... storage systems".  This model implements the same
:class:`~repro.flash.ssd.StorageBackend` protocol as the SSD, so the
whole EDC stack runs on it unchanged.

Mechanical model: a request pays an average seek + half-rotation
positioning cost unless it is address-contiguous with the previous
request (sequential accesses stream), then transfers at the platter's
media rate.  Defaults approximate a 7200 RPM enterprise SATA disk of the
paper's era (~8.5 ms average seek, ~120 MB/s media rate).

The interesting EDC-on-HDD behaviour this reproduces: positioning
dominates small random I/O, so compression's *transfer-time* benefit is
marginal for 4 KB requests — but the Sequentiality Detector's merging
(fewer, larger operations) pays off far more than it does on flash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.queueing import Server

__all__ = ["HddTiming", "SimulatedHDD"]


@dataclass(frozen=True)
class HddTiming:
    """Mechanical timing of the simulated disk."""

    #: average seek time (seconds)
    avg_seek_s: float = 0.0085
    #: spindle speed (RPM) — positioning adds half a rotation on average
    rpm: float = 7200.0
    #: sequential media transfer rate (MB/s)
    media_mb_s: float = 120.0
    #: fixed controller/command overhead per request (seconds)
    overhead_s: float = 0.0002

    def __post_init__(self) -> None:
        if self.avg_seek_s < 0 or self.overhead_s < 0:
            raise ValueError("times must be non-negative")
        if self.rpm <= 0 or self.media_mb_s <= 0:
            raise ValueError("rpm and media rate must be positive")

    @property
    def half_rotation_s(self) -> float:
        return 0.5 * 60.0 / self.rpm

    @property
    def media_bytes_per_s(self) -> float:
        return self.media_mb_s * 1024 * 1024


@dataclass
class HddStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0
    sequential_hits: int = 0


class SimulatedHDD:
    """One disk: FIFO queue + seek/rotate/transfer service model.

    Address-contiguous back-to-back requests skip the positioning cost
    (the head is already there), which is what makes merged writes so
    much cheaper than scattered ones on rust.
    """

    #: a single device: no members beneath it
    devices: Tuple[()] = ()

    def __init__(
        self,
        sim: Simulator,
        name: str = "hdd0",
        timing: Optional[HddTiming] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.timing = timing if timing is not None else HddTiming()
        self.queue = Server(sim, name=f"{name}.queue")
        self.stats = HddStats()
        self._head_pos: Optional[int] = None

    # ------------------------------------------------------------------
    def _service_time(self, lba: int, nbytes: int) -> float:
        t = self.timing
        service = t.overhead_s + nbytes / t.media_bytes_per_s
        if self._head_pos is not None and lba == self._head_pos:
            self.stats.sequential_hits += 1
        else:
            service += t.avg_seek_s + t.half_rotation_s
            self.stats.seeks += 1
        self._head_pos = lba + nbytes
        return service

    def service_read_time(self, nbytes: int) -> float:
        """Random-read service time (positioning + transfer), no queueing."""
        t = self.timing
        return t.overhead_s + t.avg_seek_s + t.half_rotation_s + nbytes / t.media_bytes_per_s

    def service_write_time(self, nbytes: int) -> float:
        """Random-write service time; symmetric with reads on an HDD."""
        return self.service_read_time(nbytes)

    # ------------------------------------------------------------------
    # StorageBackend protocol
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
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        self.queue.submit(
            self._service_time(lba, nbytes),
            on_complete=(None if on_complete is None else (lambda job: on_complete())),
            tag=("W", key if key is not None else lba),
        )

    def submit_read(
        self,
        lba: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        key: Optional[Hashable] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        self.queue.submit(
            self._service_time(lba, nbytes),
            on_complete=(None if on_complete is None else (lambda job: on_complete())),
            tag=("R", key if key is not None else lba),
        )

    def trim(self, key: Hashable) -> bool:
        """Disks have no FTL; trim is a no-op."""
        return False

    def latent_corrupt(self, key: Hashable) -> bool:
        """Disks carry no latent-error model: never corrupt."""
        return False

    def utilization(self) -> float:
        return self.queue.utilization()
