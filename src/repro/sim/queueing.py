"""FIFO queueing server on top of the event engine.

The paper's performance story is a queueing story: during bursts, slow
compression algorithms inflate the I/O queue and response times explode
(Fig 10); during idle periods the queue is empty and expensive algorithms
are free.  :class:`Server` models one contended resource — the host CPU
that runs compression, an SSD, or an array controller — as a
``c``-server FIFO queue with deterministic per-job service times supplied
by the caller.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Emitter

__all__ = ["Job", "Server"]


@dataclass
class Job:
    """One unit of work submitted to a :class:`Server`.

    Attributes
    ----------
    service_time:
        Seconds of server occupancy this job requires.
    arrival:
        Virtual time the job entered the queue.
    start:
        Virtual time service began (``None`` while queued).
    completion:
        Virtual time service finished (``None`` until done).
    """

    service_time: float
    arrival: float
    on_complete: Optional[Callable[["Job"], None]] = None
    tag: object = None
    start: Optional[float] = None
    completion: Optional[float] = None

    @property
    def wait(self) -> float:
        """Queueing delay (time between arrival and start of service)."""
        if self.start is None:
            raise ValueError("job has not started service")
        return self.start - self.arrival

    @property
    def response(self) -> float:
        """Total response time (arrival to completion)."""
        if self.completion is None:
            raise ValueError("job has not completed")
        return self.completion - self.arrival


@dataclass
class _ServerStats:
    submitted: int = 0
    completed: int = 0
    busy_time: float = 0.0
    total_wait: float = 0.0
    total_response: float = 0.0
    max_queue_len: int = 0
    # time-weighted queue length integral for mean queue length
    _ql_integral: float = field(default=0.0, repr=False)
    _ql_last_t: float = field(default=0.0, repr=False)
    _ql_last_v: int = field(default=0, repr=False)

    def note_queue_len(self, now: float, qlen: int) -> None:
        self._ql_integral += self._ql_last_v * (now - self._ql_last_t)
        self._ql_last_t = now
        self._ql_last_v = qlen
        if qlen > self.max_queue_len:
            self.max_queue_len = qlen

    def mean_queue_len(self, now: float) -> float:
        total = self._ql_integral + self._ql_last_v * (now - self._ql_last_t)
        return total / now if now > 0 else 0.0


class Server:
    """A ``c``-server FIFO queue with caller-supplied service times.

    Jobs are served in arrival order; up to ``servers`` jobs are in
    service concurrently.  Completion callbacks fire inside the event
    loop at the job's completion time.
    """

    def __init__(self, sim: Simulator, name: str = "server", servers: int = 1) -> None:
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        self.sim = sim
        self.name = name
        self.servers = servers
        self._queue: Deque[Job] = deque()
        self._in_service = 0
        self.stats = _ServerStats()
        #: ``job``: each completed :class:`Job` (wait and service split
        #: known), emitted *before* its ``on_complete``
        self.events = Emitter("server")

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Jobs waiting (not including jobs in service)."""
        return len(self._queue)

    @property
    def in_service(self) -> int:
        return self._in_service

    @property
    def depth(self) -> int:
        """Total occupancy right now: waiting jobs plus jobs in service.

        This is the instantaneous queue-depth gauge the time-series
        sampler scrapes (queue_length alone hides a busy server).
        """
        return len(self._queue) + self._in_service

    @property
    def busy(self) -> bool:
        return self._in_service > 0 or bool(self._queue)

    def utilization(self) -> float:
        """Fraction of elapsed virtual time the server spent busy."""
        now = self.sim.now
        if now <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / (now * self.servers))

    # ------------------------------------------------------------------
    def submit(
        self,
        service_time: float,
        on_complete: Optional[Callable[[Job], None]] = None,
        tag: object = None,
    ) -> Job:
        """Enqueue a job requiring ``service_time`` seconds of service."""
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time!r}")
        job = Job(service_time, self.sim.now, on_complete, tag)
        self.stats.submitted += 1
        self._queue.append(job)
        self.stats.note_queue_len(self.sim.now, len(self._queue))
        self._try_start()
        return job

    # ------------------------------------------------------------------
    def _try_start(self) -> None:
        while self._queue and self._in_service < self.servers:
            job = self._queue.popleft()
            self.stats.note_queue_len(self.sim.now, len(self._queue))
            job.start = self.sim.now
            self.stats.total_wait += job.wait
            self._in_service += 1
            self.sim.schedule(job.service_time, lambda j=job: self._finish(j))

    def _finish(self, job: Job) -> None:
        job.completion = self.sim.now
        self._in_service -= 1
        self.stats.completed += 1
        self.stats.busy_time += job.service_time
        self.stats.total_response += job.response
        self._try_start()
        if self.events.subs:
            self.events.emit("job", job)
        if job.on_complete is not None:
            job.on_complete(job)
