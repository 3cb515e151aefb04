"""The Workload Monitor (paper §III-D, Fig 4).

Monitors the I/O stream and quantifies intensity as **calculated IOPS**:
the number of 4 KB-page-equivalents issued per second, so that one 8 KB
request counts as two 4 KB requests.  The Compression Engine consults
the monitor on every write to pick the band-appropriate codec (Fig 6's
feedback loop).

The sliding window is one deque of ``(time, pages, reads)`` tuples with
three running sums, so each :meth:`WorkloadMonitor.record` call prunes
expired entries exactly once — O(evicted) total, not O(evicted) per
tracked quantity.  Timestamps are **clamped** rather than rejected:
completion callbacks and out-of-band probes occasionally observe the
clock a hair behind the last arrival, and a hard raise there would take
down the replay for a measurement artefact.  A clamped event is counted
at the monitor's latest known time, which is the closest truthful
placement inside the window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.sim.events import Emitter

__all__ = ["WorkloadMonitor", "MonitorSnapshot"]


@dataclass(frozen=True)
class MonitorSnapshot:
    """The monitor's view of the workload at one instant.

    ``band_index`` is the intensity band the supplied policy would pick
    at this instant (``None`` when no banded policy was passed to
    :meth:`WorkloadMonitor.snapshot`); ``window_requests`` /
    ``window_pages`` expose the sliding window's occupancy, so a
    decision audit can tell a confident intensity reading (full window)
    from a cold-start one (near-empty window).
    """

    time: float
    calculated_iops: float
    raw_iops: float
    read_fraction: float
    band_index: Optional[int] = None
    window_requests: int = 0
    window_pages: float = 0.0


class WorkloadMonitor:
    """Sliding-window I/O intensity measurement.

    ``record`` accepts any timestamp ordering: a timestamp earlier than
    the latest one seen is clamped up to it (see the module docstring),
    so stale entries can never linger past their window.  Queries with a
    ``now`` behind the newest recorded event are clamped the same way.
    """

    def __init__(self, window: float = 1.0, page_size: int = 4096) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive: {window!r}")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive: {page_size!r}")
        self.page_size = page_size
        self.window = window
        #: (time, pages, reads) per request, newest at the right
        self._events: Deque[Tuple[float, float, float]] = deque()
        self._pages_sum = 0.0
        self._requests_sum = 0.0
        self._reads_sum = 0.0
        self._last_t = float("-inf")
        self.total_requests = 0
        self.total_pages = 0
        #: ``record``: ``(time, op, lba, pages)`` once per
        #: :meth:`record`, with the clamped timestamp (the device-health
        #: temperature map subscribes here)
        self.events = Emitter("monitor")

    def pages_of(self, nbytes: int) -> int:
        """4 KB-equivalents of a request (always at least one)."""
        if nbytes <= 0:
            raise ValueError(f"request size must be positive: {nbytes!r}")
        return max(1, (nbytes + self.page_size - 1) // self.page_size)

    def record(
        self, time: float, op: str, nbytes: int, lba: Optional[int] = None
    ) -> None:
        """Note one request entering the system.

        Non-monotonic ``time`` values are clamped up to the latest
        timestamp already recorded, keeping the deque time-ordered (the
        invariant single-pass pruning relies on).  ``lba`` is only
        passed through to the ``record`` event (the temperature-map feed);
        intensity accounting ignores it.
        """
        if time < self._last_t:
            time = self._last_t
        else:
            self._last_t = time
        pages = float(self.pages_of(nbytes))
        if self.events.subs:
            self.events.emit("record", time, op, lba, pages)
        reads = 1.0 if op == "R" else 0.0
        self._events.append((time, pages, reads))
        self._pages_sum += pages
        self._requests_sum += 1.0
        self._reads_sum += reads
        self.total_requests += 1
        self.total_pages += int(pages)
        self._expire(time)

    def _expire(self, now: float) -> None:
        """Drop entries at or before ``now - window``: one pass, O(evicted)."""
        cutoff = now - self.window
        ev = self._events
        while ev and ev[0][0] <= cutoff:
            _, pages, reads = ev.popleft()
            self._pages_sum -= pages
            self._requests_sum -= 1.0
            self._reads_sum -= reads
        if not ev:
            # Clear accumulated floating-point residue so an empty window
            # reads exactly zero (sums can otherwise go slightly negative).
            self._pages_sum = self._requests_sum = self._reads_sum = 0.0

    def reset(self) -> None:
        """Return the monitor to its freshly-constructed state.

        Clears the sliding window, the clamp watermark *and* the
        cumulative totals — reuse across replays must not leak intensity
        from the previous run into the first window of the next.
        """
        self._events.clear()
        self._pages_sum = self._requests_sum = self._reads_sum = 0.0
        self._last_t = float("-inf")
        self.total_requests = 0
        self.total_pages = 0

    # ------------------------------------------------------------------
    def _clamped(self, now: float) -> float:
        return now if now >= self._last_t else self._last_t

    def calculated_iops(self, now: float) -> float:
        """4 KB-normalised I/Os per second over the trailing window."""
        now = self._clamped(now)
        self._expire(now)
        return self._pages_sum / self.window

    def raw_iops(self, now: float) -> float:
        """Request arrivals per second over the trailing window."""
        now = self._clamped(now)
        self._expire(now)
        return self._requests_sum / self.window

    def snapshot(self, now: float, policy=None) -> MonitorSnapshot:
        """The monitor's state at ``now``, optionally banded by ``policy``.

        When ``policy`` has a band ladder
        (:attr:`~repro.core.policy.CompressionPolicy.ladder`), the
        snapshot carries the band the intensity implies, read through
        the ladder's pure ``band_index`` query without touching its
        selection counters.
        """
        now = self._clamped(now)
        self._expire(now)
        raw = self._requests_sum
        calc = self._pages_sum / self.window
        band: Optional[int] = None
        ladder = policy.ladder if policy is not None else None
        if ladder is not None:
            band = ladder.band_index(calc)
        return MonitorSnapshot(
            time=now,
            calculated_iops=calc,
            raw_iops=raw / self.window,
            read_fraction=(self._reads_sum / raw) if raw > 0 else 0.0,
            band_index=band,
            window_requests=len(self._events),
            window_pages=self._pages_sum,
        )
