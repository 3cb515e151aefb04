"""Deterministic fault injection for the EDC storage stack.

A :class:`FaultPlan` declares what goes wrong (transient read faults,
wear-coupled bit errors, program failures, latency spikes, scheduled
whole-device failures, scheduled :class:`PowerLoss` cuts interpreted by
the crash harness) and the recovery knobs (retry budget, exponential
backoff, rebuild cadence); per-device :class:`FaultInjector` objects
roll the seeded dice inside :class:`~repro.flash.ssd.SimulatedSSD`, and
the layers above — the FTL's bad-block retirement, RAIS5's degraded
mode and event-driven rebuild, the EDC device's raw-storage fallback —
handle what fires.  ``python -m repro.bench chaos plan.json`` replays
the canonical traces under a plan and reports recovered-vs-failed
counts plus degraded-window latency percentiles.
"""

from repro.faults.latent import (
    LatentErrorModel,
    LatentStats,
    ReadDisturb,
    RetentionLoss,
)
from repro.faults.plan import (
    PLAN_SCHEMA,
    DeviceFailedError,
    DeviceFailure,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultStats,
    PowerLoss,
    ProgramFaultError,
    ReadFaultError,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
    "DeviceFailure",
    "PowerLoss",
    "RetentionLoss",
    "ReadDisturb",
    "LatentErrorModel",
    "LatentStats",
    "PLAN_SCHEMA",
    "FaultError",
    "ReadFaultError",
    "ProgramFaultError",
    "DeviceFailedError",
]
