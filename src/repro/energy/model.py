"""Energy model for the EDC stack.

Energy = power x time, integrated over the replay for each component:

- **host CPU** — the compression engine's core draws its active power
  while (de)compressing and estimating; idle CPU is attributed to the
  host, not to the storage stack, so only busy time counts here.
- **flash device(s)** — active power while serving a request, idle
  power otherwise (the X25-E's published figures: ~2.4 W active,
  ~0.06 W idle).

The trade-off the paper describes appears directly: compression adds
CPU joules but removes device-active joules (smaller transfers, fewer
GC erases); write-through of incompressible data removes the CPU cost
without giving back device savings it never had.

Durable-metadata overhead (crash consistency) needs no special case:
journal flushes and checkpoint images are issued as real in-band device
writes, so their service time is already inside the backends' busy time
and lands in ``device_active_joules`` like any other write.
:meth:`EnergyModel.metadata_joules` splits that share back out of the
total for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

from repro.core.device import EDCBlockDevice

__all__ = ["POWER", "EnergyReport", "EnergyModel"]

#: component power draws (watts)
POWER = SimpleNamespace(
    # one core of the host CPU at full tilt (compression is
    # single-threaded per the prototype; a Westmere core under load is
    # ~20-25 W)
    cpu_core_active_w=22.0,
    # flash device serving I/O (X25-E spec: 2.4 W active)
    device_active_w=2.4,
    # flash device idle (X25-E spec: 0.06 W)
    device_idle_w=0.06,
)


@dataclass(frozen=True)
class EnergyReport:
    """Joules consumed by one replay, split by component."""

    horizon_s: float
    cpu_joules: float
    device_active_joules: float
    device_idle_joules: float
    logical_bytes: int

    @property
    def total_joules(self) -> float:
        return self.cpu_joules + self.device_active_joules + self.device_idle_joules

    @property
    def active_joules(self) -> float:
        """Work-proportional energy (excludes idle floor)."""
        return self.cpu_joules + self.device_active_joules

    @property
    def joules_per_gb(self) -> float:
        """Active energy per logical gigabyte moved through the stack."""
        gb = self.logical_bytes / (1024**3)
        if gb == 0:
            return 0.0
        return self.active_joules / gb

    def vs(self, baseline: "EnergyReport") -> float:
        """Active-energy ratio against a baseline replay (< 1 = saves energy)."""
        if baseline.active_joules == 0:
            return float("inf") if self.active_joules else 1.0
        return self.active_joules / baseline.active_joules


class EnergyModel:
    """Computes :class:`EnergyReport` from replay measurements at the
    :data:`POWER` draws."""

    params = POWER

    def from_times(
        self,
        horizon_s: float,
        cpu_busy_s: float,
        device_busy_s: Sequence[float],
        logical_bytes: int = 0,
    ) -> EnergyReport:
        """Energy from raw busy times (one entry per device)."""
        if horizon_s < 0 or cpu_busy_s < 0 or any(b < 0 for b in device_busy_s):
            raise ValueError("times must be non-negative")
        if cpu_busy_s > horizon_s + 1e-9:
            raise ValueError("CPU busy time exceeds the horizon")
        p = POWER
        active = sum(device_busy_s)
        idle = sum(max(0.0, horizon_s - b) for b in device_busy_s)
        return EnergyReport(
            horizon_s=horizon_s,
            cpu_joules=cpu_busy_s * p.cpu_core_active_w,
            device_active_joules=active * p.device_active_w,
            device_idle_joules=idle * p.device_idle_w,
            logical_bytes=logical_bytes,
        )

    def measure(
        self,
        device: EDCBlockDevice,
        backends: Sequence,
        horizon_s: float,
    ) -> EnergyReport:
        """Energy of a finished replay through an :class:`EDCBlockDevice`.

        ``backends`` lists the simulated devices below it (one SSD, or
        the five members of a RAIS5 array); each must expose a ``queue``
        with busy-time statistics.
        """
        return self.from_times(
            horizon_s=horizon_s,
            cpu_busy_s=device.cpu.stats.busy_time,
            device_busy_s=[b.queue.stats.busy_time for b in backends],
            logical_bytes=device.stats.logical_bytes,
        )

    def metadata_joules(self, recovery) -> float:
        """Active joules spent programming durable metadata in-band.

        ``recovery`` is a
        :class:`~repro.recovery.DurableMetadataManager`; its
        ``meta_device_seconds`` is the device-occupancy time of journal
        flushes and checkpoint images.  That time is already included
        in :meth:`measure`'s ``device_active_joules`` (the writes go
        through the ordinary queue), so this is a breakdown, not an
        addition.
        """
        return (
            recovery.stats.meta_device_seconds * POWER.device_active_w
        )
