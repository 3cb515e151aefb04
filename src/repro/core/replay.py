"""Trace replay driver.

Replaying a trace through an :class:`~repro.core.device.EDCBlockDevice`
always follows the same choreography: register the trace's arrivals
with the simulator, run the event loop, flush the Sequentiality Detector's
tail, run again, and confirm nothing is left outstanding.
:class:`TraceReplayer` packages that loop once for the harness, the
examples and the tests.

When a :class:`~repro.telemetry.Telemetry` is bound to the device,
every replayed request gets a per-request root span and the per-layer
latency breakdown accumulates during the run; the replayer exposes it
through :attr:`TraceReplayer.telemetry` so the harness can export it
right after :meth:`TraceReplayer.run`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.device import EDCBlockDevice
from repro.sim.engine import Simulator
from repro.traces.model import Trace

__all__ = ["TraceReplayer", "ReplayOutcome"]


class ReplayError(RuntimeError):
    """Raised when a replay finishes in an inconsistent state."""


@dataclass(frozen=True)
class ReplayOutcome:
    """Summary of one completed replay."""

    n_requests: int
    horizon: float
    mean_response: float
    mean_write_response: float
    mean_read_response: float
    compression_ratio: float
    space_saving: float


class TraceReplayer:
    """Drives one device with one or more traces on a shared simulator."""

    def __init__(self, sim: Simulator, device: EDCBlockDevice) -> None:
        if device.sim is not sim:
            raise ValueError("device must be built on the same simulator")
        self.sim = sim
        self.device = device
        self._scheduled = 0

    @property
    def telemetry(self):
        """The telemetry bound to the device (``None`` when there is none)."""
        return self.device.observers.get("telemetry")

    def schedule(self, trace: Trace) -> None:
        """Schedule every request of ``trace`` at its timestamp.

        May be called more than once (e.g. to overlay traces); all
        timestamps must lie at or after the current virtual time.  Only
        the next request of each trace waits on the event heap
        (:meth:`~repro.sim.engine.Simulator.arrivals`).
        """
        self.sim.arrivals(trace, self.device.submit)
        self._scheduled += len(trace)

    def run(self) -> ReplayOutcome:
        """Run to completion (including the SD tail) and summarise.

        Raises :class:`ReplayError` if requests remain outstanding — a
        lost completion callback somewhere in the stack.
        """
        self.sim.run()
        self.device.flush()
        self.sim.run()
        if self.device.outstanding:
            raise ReplayError(
                f"{self.device.outstanding} of {self._scheduled} requests "
                "never completed"
            )
        d = self.device
        return ReplayOutcome(
            n_requests=self._scheduled,
            horizon=self.sim.now,
            mean_response=d.mean_response_time(),
            mean_write_response=d.write_latency.mean(),
            mean_read_response=d.read_latency.mean(),
            compression_ratio=d.stats.compression_ratio,
            space_saving=d.stats.space_saving,
        )

    def replay(self, trace: Trace) -> ReplayOutcome:
        """Convenience: :meth:`schedule` + :meth:`run` in one call."""
        self.schedule(trace)
        return self.run()
