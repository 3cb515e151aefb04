"""Discrete-event simulation substrate.

This package provides the minimal event-driven machinery that the flash
device models and the EDC replay harness are built on:

- :class:`~repro.sim.engine.Simulator` — an event loop with a virtual clock.
- :class:`~repro.sim.queueing.Server` — one FIFO server that models a
  contended resource (host CPU, SSD channel, array controller).
- :mod:`~repro.sim.metrics` — latency recorders and time series used
  throughout the evaluation harness.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.metrics import LatencyRecorder, TimeSeries
from repro.sim.queueing import Job, Server

__all__ = [
    "EventHandle",
    "Simulator",
    "Server",
    "Job",
    "LatencyRecorder",
    "TimeSeries",
]
