"""Block I/O trace model.

A trace is an ordered sequence of timestamped read/write requests at
byte addresses.  :class:`TraceStats` computes the characteristics the
paper reports in its Table II — read/write ratio, raw IOPS, average
request size — plus the sequentiality and footprint numbers the EDC
mechanisms care about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

__all__ = ["IORequest", "Trace", "TraceStats", "READ", "WRITE"]

READ = "R"
WRITE = "W"


@dataclass(frozen=True)
class IORequest:
    """One block I/O request.

    ``lba`` and ``nbytes`` are in bytes; ``time`` in seconds from trace
    start.
    """

    time: float
    op: str
    lba: int
    nbytes: int

    def __post_init__(self) -> None:
        if not self.time >= 0:  # also rejects NaN
            raise ValueError(f"timestamp must be >= 0: {self.time!r}")
        if self.op not in (READ, WRITE):
            raise ValueError(f"op must be 'R' or 'W', got {self.op!r}")
        if self.lba < 0:
            raise ValueError(f"negative LBA: {self.lba!r}")
        if self.nbytes <= 0:
            raise ValueError(f"request size must be positive: {self.nbytes!r}")

    @property
    def is_read(self) -> bool:
        return self.op == READ

    @property
    def is_write(self) -> bool:
        return self.op == WRITE

    @property
    def end(self) -> int:
        """First byte past the request."""
        return self.lba + self.nbytes


@dataclass(frozen=True)
class TraceStats:
    """Summary characteristics of a trace (the paper's Table II row)."""

    name: str
    n_requests: int
    reads: int
    writes: int
    read_ratio: float
    duration: float
    raw_iops: float
    avg_request_bytes: float
    avg_read_bytes: float
    avg_write_bytes: float
    footprint_blocks: int
    sequential_fraction: float

    @property
    def write_ratio(self) -> float:
        return 1.0 - self.read_ratio


class Trace:
    """An ordered, timestamp-sorted sequence of :class:`IORequest`."""

    def __init__(self, name: str, requests: Iterable[IORequest]) -> None:
        self.name = name
        self._requests: List[IORequest] = list(requests)
        if any(
            self._requests[i].time > self._requests[i + 1].time
            for i in range(len(self._requests) - 1)
        ):
            self._requests.sort(key=lambda r: r.time)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self._requests)

    def __getitem__(self, idx: int) -> IORequest:
        return self._requests[idx]

    @property
    def requests(self) -> Sequence[IORequest]:
        return self._requests

    @property
    def duration(self) -> float:
        """Seconds from trace start to the last request's arrival."""
        return self._requests[-1].time if self._requests else 0.0

    # ------------------------------------------------------------------
    def head(self, n: int) -> "Trace":
        """The first ``n`` requests as a new trace."""
        return Trace(self.name, self._requests[:n])

    def window(self, start: float, end: float) -> "Trace":
        """Requests with ``start <= time < end``, re-based to start at 0."""
        if end <= start:
            raise ValueError(f"empty window: [{start!r}, {end!r})")
        reqs = [
            IORequest(r.time - start, r.op, r.lba, r.nbytes)
            for r in self._requests
            if start <= r.time < end
        ]
        return Trace(self.name, reqs)

    def filter(self, predicate: Callable[[IORequest], bool]) -> "Trace":
        return Trace(self.name, [r for r in self._requests if predicate(r)])

    def scaled_addresses(self, max_bytes: int, block: int = 4096) -> "Trace":
        """Wrap addresses into ``[0, max_bytes)`` preserving block alignment.

        Real traces address volumes far larger than the scaled-down
        simulated device; modulo-folding preserves the overwrite/reuse
        structure that drives GC while fitting the device.
        """
        if max_bytes <= 0 or max_bytes % block:
            raise ValueError("max_bytes must be a positive multiple of block")
        nblocks = max_bytes // block
        reqs = []
        for r in self._requests:
            blk = (r.lba // block) % nblocks
            nbytes = min(r.nbytes, max_bytes - blk * block)
            reqs.append(IORequest(r.time, r.op, blk * block, nbytes))
        return Trace(self.name, reqs)

    # ------------------------------------------------------------------
    def stats(self, block: int = 4096) -> TraceStats:
        """Table II-style characteristics of this trace."""
        n = len(self._requests)
        if n == 0:
            return TraceStats(self.name, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0)
        sizes = np.array([r.nbytes for r in self._requests], dtype=np.float64)
        is_read = np.array([r.is_read for r in self._requests], dtype=bool)
        reads = int(is_read.sum())
        writes = n - reads
        duration = max(self.duration, 1e-9)
        footprint: set[int] = set()
        sequential = 0
        prev_end: Optional[int] = None
        for r in self._requests:
            for blk in range(r.lba // block, (r.end + block - 1) // block):
                footprint.add(blk)
            if prev_end is not None and r.lba == prev_end:
                sequential += 1
            prev_end = r.end
        return TraceStats(
            name=self.name,
            n_requests=n,
            reads=reads,
            writes=writes,
            read_ratio=reads / n,
            duration=duration,
            raw_iops=n / duration,
            avg_request_bytes=float(sizes.mean()),
            avg_read_bytes=float(sizes[is_read].mean()) if reads else 0.0,
            avg_write_bytes=float(sizes[~is_read].mean()) if writes else 0.0,
            footprint_blocks=len(footprint),
            sequential_fraction=sequential / n,
        )

    def intensity_series(self, bin_width: float = 1.0, page: int = 4096):
        """(times, calculated-IOPS) series for burstiness plots (Fig 3).

        Values are 4 KB-normalised page counts per second per bin —
        the same quantity the Workload Monitor tracks.
        """
        from repro.sim.metrics import TimeSeries

        ts = TimeSeries(bin_width)
        for r in self._requests:
            pages = max(1, (r.nbytes + page - 1) // page)
            ts.add(r.time, pages)
        return ts.rates()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r}, n={len(self)}, dur={self.duration:.1f}s)"
