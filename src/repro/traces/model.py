"""Block I/O trace model.

A trace is an ordered sequence of timestamped read/write requests at
byte addresses.  :class:`TraceStats` computes the characteristics the
paper reports in its Table II — read/write ratio, raw IOPS, average
request size — plus the sequentiality and footprint numbers the EDC
mechanisms care about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

__all__ = ["IORequest", "Trace", "TraceStats", "READ", "WRITE", "fold_request"]

READ = "R"
WRITE = "W"


@dataclass(frozen=True, eq=False, slots=True, init=False)
class IORequest:
    """One block I/O request.

    ``lba`` and ``nbytes`` are in bytes; ``time`` in seconds from trace
    start.  Requests compare and hash by identity: a replica or retry
    built from the same fields is a different request, so in-flight
    state can key by the request object itself.

    A request costs its four slots and nothing more (no ``__dict__``).
    The constructor validates, then stores through the slot descriptors
    directly rather than through ``object.__setattr__`` as a generated
    frozen ``__init__`` would (assignment after construction still
    raises ``FrozenInstanceError``).
    """

    time: float
    op: str
    lba: int
    nbytes: int

    def __init__(self, time: float, op: str, lba: int, nbytes: int) -> None:
        if not time >= 0:  # also rejects NaN
            raise ValueError(f"timestamp must be >= 0: {time!r}")
        if op not in (READ, WRITE):
            raise ValueError(f"op must be 'R' or 'W', got {op!r}")
        if lba < 0:
            raise ValueError(f"negative LBA: {lba!r}")
        if nbytes <= 0:
            raise ValueError(f"request size must be positive: {nbytes!r}")
        _set_time(self, time)
        _set_op(self, op)
        _set_lba(self, lba)
        _set_nbytes(self, nbytes)

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


_set_time = IORequest.time.__set__
_set_op = IORequest.op.__set__
_set_lba = IORequest.lba.__set__
_set_nbytes = IORequest.nbytes.__set__


def fold_request(request: IORequest, max_bytes: int, block: int = 4096) -> IORequest:
    """``request`` with its address wrapped into ``[0, max_bytes)``.

    Modulo on block granularity, so alignment is kept; the size is
    clamped at ``max_bytes``.  Real traces address volumes far larger
    than the scaled-down simulated device; folding preserves the
    overwrite/reuse structure that drives GC while fitting the device.
    ``max_bytes`` must be a positive multiple of ``block`` (the callers
    check it once, not per request).  Time and op are unchanged.
    """
    lba = request.lba // block % (max_bytes // block) * block
    return IORequest(request.time, request.op, lba, min(request.nbytes, max_bytes - lba))


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

    def scaled_addresses(self, max_bytes: int, block: int = 4096) -> "Trace":
        """Every request folded by :func:`fold_request` onto ``max_bytes``."""
        if max_bytes <= 0 or max_bytes % block:
            raise ValueError("max_bytes must be a positive multiple of block")
        return Trace(self.name, [fold_request(r, max_bytes, block) for r in self._requests])

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
