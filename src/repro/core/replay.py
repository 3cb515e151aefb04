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

from typing import Optional

from repro.core.device import EDCBlockDevice
from repro.sim.engine import Simulator
from repro.traces.model import Trace

__all__ = ["TraceReplayer"]


class ReplayError(RuntimeError):
    """Raised when a replay finishes in an inconsistent state."""


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

    def schedule(self, trace: Trace, fold_bytes: Optional[int] = None) -> None:
        """Schedule every request of ``trace`` at its timestamp.

        May be called more than once (e.g. to overlay traces); all
        timestamps must lie at or after the current virtual time.  Only
        the next request of each trace waits on the event heap
        (:meth:`~repro.sim.engine.Simulator.arrivals`), and each request
        is built as it arrives and handed to the device.  With
        ``fold_bytes`` it is built already folded onto the device's
        first ``fold_bytes`` (:meth:`~repro.traces.model.Trace.folded`
        at the device's block size), the one request the replay makes.
        """
        requests = trace if fold_bytes is None else trace.folded(
            fold_bytes, self.device.config.block_size
        )
        self.sim.arrivals(requests, self.device.submit, trace.times)
        self._scheduled += len(trace)

    def run(self) -> None:
        """Run to completion (including the SD tail).

        The results are the device's own: its latency recorders and
        :attr:`~repro.core.device.EDCBlockDevice.stats`.

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

    def replay(self, trace: Trace) -> None:
        """Convenience: :meth:`schedule` + :meth:`run` in one call."""
        self.schedule(trace)
        self.run()
