"""FIFO queueing server on top of the event engine.

The paper's performance story is a queueing story: during bursts, slow
compression algorithms inflate the I/O queue and response times explode
(Fig 10); during idle periods the queue is empty and expensive algorithms
are free.  :class:`Server` models one contended resource — the host CPU
that runs compression, an SSD, or an array controller — as one FIFO
server with deterministic per-job service times supplied by the caller.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Emitter

__all__ = ["Job", "Server"]


@dataclass(slots=True)
class Job:
    """One unit of work submitted to a :class:`Server`.

    Attributes
    ----------
    service_time:
        Seconds of server occupancy this job requires.
    arrival:
        Virtual time the job entered the queue.
    start:
        Virtual time service begins, known at submit.
    completion:
        Virtual time service finished (``None`` until done).
    """

    service_time: float
    arrival: float
    start: float
    on_complete: Optional[Callable[["Job"], None]] = None
    tag: object = None
    completion: Optional[float] = None

    @property
    def wait(self) -> float:
        """Queueing delay (time between arrival and start of service)."""
        return self.start - self.arrival


@dataclass
class _ServerStats:
    busy_time: float = 0.0


class Server:
    """One FIFO server with caller-supplied service times.

    A job's start is known at submit: ``max(now, free_at)``.  Its finish
    event is scheduled when it enters service, by :meth:`submit` on an
    idle server and otherwise by its predecessor's finish, so a finish
    takes its place among same-time events when its service begins.
    Completion callbacks fire inside the event loop at the job's
    completion time.
    """

    def __init__(self, sim: Simulator, name: str = "server") -> None:
        self.sim = sim
        self.name = name
        self._waiting: Deque[Job] = deque()
        self._free_at = 0.0
        #: waiting jobs plus the one in service: the queue-depth gauge
        #: the time-series sampler scrapes
        self.depth = 0
        self.stats = _ServerStats()
        #: ``job``: each completed :class:`Job` (wait and service split
        #: known), emitted *before* its ``on_complete``
        self.events = Emitter("server")

    def utilization(self) -> float:
        """Fraction of elapsed virtual time the server spent busy."""
        now = self.sim.now
        if now <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / now)

    def submit(
        self,
        service_time: float,
        on_complete: Optional[Callable[[Job], None]] = None,
        tag: object = None,
    ) -> Job:
        """Enqueue a job requiring ``service_time`` seconds of service."""
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time!r}")
        now = self.sim.now
        busy = self.depth
        job = Job(service_time, now, self._free_at if busy else now, on_complete, tag)
        self._free_at = job.start + service_time
        self.depth = busy + 1
        if busy:
            self._waiting.append(job)
        else:
            self.sim.schedule_at(self._free_at, partial(self._finish, job))
        return job

    def _finish(self, job: Job) -> None:
        now = job.completion = self.sim.now
        self.depth -= 1
        self.stats.busy_time += job.service_time
        if self._waiting:
            nxt = self._waiting.popleft()
            self.sim.schedule_at(now + nxt.service_time, partial(self._finish, nxt))
        if self.events.subs:
            self.events.emit("job", job)
        if job.on_complete is not None:
            job.on_complete(job)
