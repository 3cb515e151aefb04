"""The event engine as it stood before lazy arrivals, kept as the test oracle.

This is ``repro.sim.engine`` from before heap entries became plain
lists and :meth:`~repro.sim.engine.Simulator.arrivals` replaced the
per-request ``schedule_at`` loop, moved here verbatim (it has no
``arrivals``: a stream is one ``schedule_at`` per item, as replayers
did then).  ``tests/test_engine_differential.py`` runs the same random
program on both engines and compares them step by step.  Do not
optimise this file.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["Simulator", "EventHandle", "PeriodicEvent", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid use of the simulation engine."""


@dataclass(frozen=True)
class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Holding the handle allows the event to be cancelled before it fires.
    """

    time: float
    seq: int


@dataclass(order=True)
class _Scheduled:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    daemon: bool = field(default=False, compare=False)


class PeriodicEvent:
    """A self-rescheduling event created by :meth:`Simulator.every`.

    Fires ``action`` every ``interval`` seconds until cancelled.  By
    default the recurrences are *daemon* events: they tick while the
    simulation has other (foreground) work but do not keep
    :meth:`Simulator.run` alive on their own — exactly what a periodic
    metrics sampler needs to avoid turning ``run()`` into an infinite
    loop.
    """

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        action: Callable[[], None],
        daemon: bool = True,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval!r}")
        self.sim = sim
        self.interval = interval
        self.action = action
        self.daemon = daemon
        self.fired = 0
        self._cancelled = False
        self._handle = sim.schedule(interval, self._fire, daemon=daemon)

    def _fire(self) -> None:
        if self._cancelled:  # pragma: no cover - cancel() also cancels the event
            return
        self.fired += 1
        self.action()
        if not self._cancelled:
            self._handle = self.sim.schedule(
                self.interval, self._fire, daemon=self.daemon
            )

    def cancel(self) -> None:
        """Stop recurring; the pending occurrence is cancelled too."""
        self._cancelled = True
        self.sim.cancel(self._handle)

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Simulator:
    """Event loop with a virtual clock.

    The clock starts at ``0.0`` and only moves forward, jumping to the
    timestamp of each event as it is dispatched.  All model components
    (queues, devices, monitors) share one :class:`Simulator` so that their
    notion of "now" is consistent.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[_Scheduled] = []
        self._live: dict[int, _Scheduled] = {}
        self._seq = itertools.count()
        self._dispatched = 0
        self._foreground = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events scheduled but not yet dispatched."""
        return len(self._live)

    @property
    def pending_foreground(self) -> int:
        """Pending non-daemon events (the ones that keep :meth:`run` alive)."""
        return self._foreground

    @property
    def dispatched(self) -> int:
        """Total number of events dispatched since construction."""
        return self._dispatched

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, action: Callable[[], None], daemon: bool = False
    ) -> EventHandle:
        """Schedule ``action`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the action after
        all events already scheduled for the current instant.  ``daemon``
        events dispatch normally but do not keep :meth:`run` alive: once
        only daemon events remain the simulation is considered drained
        (the hook periodic samplers are built on).
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.schedule_at(self._now + delay, action, daemon=daemon)

    def schedule_at(
        self, time: float, action: Callable[[], None], daemon: bool = False
    ) -> EventHandle:
        """Schedule ``action`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time!r} < now {self._now!r}"
            )
        seq = next(self._seq)
        ev = _Scheduled(time, seq, action, daemon=daemon)
        heapq.heappush(self._heap, ev)
        self._live[seq] = ev
        if not daemon:
            self._foreground += 1
        return EventHandle(time, seq)

    def defer(self, action: Callable[[], None]) -> EventHandle:
        """Run ``action`` at the current instant, after queued same-time events.

        Error-notification paths use this instead of calling back
        synchronously: a fault detected while a compound request is
        still being planned (e.g. mid-way through issuing a RAID
        stripe) must not re-enter the issuing layer before the plan is
        fully set up.
        """
        return self.schedule(0.0, action)

    def every(
        self,
        interval: float,
        action: Callable[[], None],
        daemon: bool = True,
    ) -> PeriodicEvent:
        """Run ``action`` every ``interval`` seconds until cancelled.

        The first occurrence fires at ``now + interval``.  Returns the
        :class:`PeriodicEvent` (call ``cancel()`` to stop it).  With the
        default ``daemon=True`` the recurrence never keeps :meth:`run`
        alive by itself, so a sampler can tick "forever" and the
        simulation still terminates when the real workload drains.
        """
        return PeriodicEvent(self, interval, action, daemon=daemon)

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a pending event.  Returns ``True`` if it was still pending."""
        ev = self._live.pop(handle.seq, None)
        if ev is None:
            return False
        ev.cancelled = True
        if not ev.daemon:
            self._foreground -= 1
        return True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the single next event.  Returns ``False`` when idle."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            del self._live[ev.seq]
            if not ev.daemon:
                self._foreground -= 1
            self._now = ev.time
            self._dispatched += 1
            ev.action()
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains (or past ``until`` seconds).

        "Drained" means no *foreground* events remain: daemon events
        (periodic samplers) by themselves do not keep the loop alive.
        With ``until`` set, all events up to that time — daemon ones
        included — are dispatched and the clock is advanced to ``until``
        exactly.
        """
        if until is None:
            while self._foreground and self.step():
                pass
            return
        if until < self._now:
            raise SimulationError(f"until {until!r} is in the past (now={self._now!r})")
        while self._heap:
            nxt = self._peek_time()
            if nxt is None or nxt > until:
                break
            self.step()
        self._now = max(self._now, until)

    def _peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None
