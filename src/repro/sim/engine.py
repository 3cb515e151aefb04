"""Discrete-event simulation engine.

A deliberately small, dependency-free event loop.  Events are callables
scheduled at absolute virtual times; ties are broken by insertion order so
the simulation is fully deterministic.  The engine is the backbone of the
SSD/RAIS models and of the trace-replay harness: trace arrivals, device
service completions and garbage-collection stalls are all events on the
same clock.  A trace enters through :meth:`Simulator.arrivals`, which
keeps one pending arrival per trace on the heap, so the heap's depth and
the engine's memory do not grow with the trace.

Example
-------
>>> sim = Simulator()
>>> seen = []
>>> h = sim.schedule(1.0, lambda: seen.append(sim.now))
>>> sim.run()
>>> seen
[1.0]
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional, Sequence

__all__ = ["Simulator", "EventHandle", "PeriodicEvent", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid use of the simulation engine."""


class EventHandle(list):
    """A scheduled event, returned by :meth:`Simulator.schedule`.

    The handle *is* the heap entry ``[time, seq, action, daemon]``, so
    ``heapq`` orders entries by ``(time, seq)`` in C; ``seq`` is unique,
    so the action is never compared.  Cancelling the event, or
    dispatching it, clears its action; a cleared entry still on the
    heap is skipped when it surfaces.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]


class _Arrivals:
    """A stream's one pending arrival (:meth:`Simulator.arrivals`).

    Firing it pushes the next arrival under the next reserved sequence
    number, then submits the item that fired.  It refers to the heap,
    not to the simulator, and nothing refers to it once the last
    arrival has fired.
    """

    __slots__ = ("heap", "submit", "rest", "item", "seq")

    def __init__(
        self, heap: list, submit: Callable[[Any], None], items: Sequence, seq: int
    ) -> None:
        self.heap = heap
        self.submit = submit
        self.rest = iter(items)
        self.item = next(self.rest)
        self.seq = seq
        heappush(heap, [self.item.time, seq, self.fire, False])

    def fire(self) -> None:
        item = self.item
        nxt = next(self.rest, None)
        if nxt is not None:
            self.item = nxt
            self.seq += 1
            heappush(self.heap, [nxt.time, self.seq, self.fire, False])
        self.submit(item)


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
        #: current virtual time in seconds; the dispatch loop writes it
        self.now = 0.0
        self._heap: list[list] = []
        self._seq = 0
        self._pending = 0
        self._dispatched = 0
        self._foreground = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events scheduled but not yet dispatched.

        Arrivals registered with :meth:`arrivals` count from registration
        on, although only the next one of each stream is on the heap.
        """
        return self._pending

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
        return self.schedule_at(self.now + delay, action, daemon=daemon)

    def schedule_at(
        self, time: float, action: Callable[[], None], daemon: bool = False
    ) -> EventHandle:
        """Schedule ``action`` at absolute virtual time ``time``."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {time!r}: before now {self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = EventHandle((time, seq, action, daemon))
        heappush(self._heap, ev)
        self._pending += 1
        if not daemon:
            self._foreground += 1
        return ev

    def arrivals(self, trace: Sequence, submit: Callable[[Any], None]) -> None:
        """Call ``submit(item)`` at ``item.time`` for each item of ``trace``.

        The replacement for a ``schedule_at`` per request: registering
        reserves one sequence number per item, so each arrival
        dispatches under the ``(time, seq)`` key an eager loop would have
        given it, but only the stream's next arrival is on the heap; it
        pushes its successor when it fires.  The times must not decrease
        and must not begin before now.  Arrivals are foreground events
        and count in :attr:`pending` from registration on.
        """
        prev = self.now
        n = 0
        for item in trace:
            time = item.time
            if not time >= prev:  # also rejects NaN
                before = f"arrival {n - 1}" if n else "now"
                raise SimulationError(
                    f"arrival {n} at {time!r} is before {before} ({prev!r})"
                )
            prev = time
            n += 1
        if not n:
            return
        _Arrivals(self._heap, submit, trace, self._seq)
        self._seq += n
        self._pending += n
        self._foreground += n

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
        if handle[2] is None:
            return False
        handle[2] = None
        self._pending -= 1
        if not handle[3]:
            self._foreground -= 1
        return True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the single next event.  Returns ``False`` when idle."""
        return self._dispatch(None, True)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains (or past ``until`` seconds).

        "Drained" means no *foreground* events remain: daemon events
        (periodic samplers) by themselves do not keep the loop alive.
        With ``until`` set, all events up to that time — daemon ones
        included — are dispatched and the clock is advanced to ``until``
        exactly.
        """
        if until is None:
            self._dispatch(None, False)
            return
        if not until >= self.now:
            raise SimulationError(f"until {until!r} is in the past (now={self.now!r})")
        self._dispatch(until, False)
        self.now = max(self.now, until)

    def _dispatch(self, until: Optional[float], once: bool) -> bool:
        """Dispatch events, dropping cancelled ones as they surface, until
        one was (``once``), the next is past ``until``, or (neither set)
        no foreground event is pending.  Returns whether one was."""
        heap = self._heap
        while heap:
            ev = heap[0]
            action = ev[2]
            if action is None:
                heappop(heap)
                continue
            if until is None:
                if not (once or self._foreground):
                    return False
            elif ev[0] > until:
                return False
            heappop(heap)
            ev[2] = None
            self._pending -= 1
            if not ev[3]:
                self._foreground -= 1
            self.now = ev[0]
            self._dispatched += 1
            action()
            if once:
                return True
        return False
