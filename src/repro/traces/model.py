"""Block I/O trace model.

A trace is an ordered sequence of timestamped read/write requests at
byte addresses, stored as typed columns; an :class:`IORequest` is built
only when a consumer takes one.  :class:`TraceStats` computes the
characteristics the paper reports in its Table II — read/write ratio,
raw IOPS, average request size — plus the sequentiality and footprint
numbers the EDC mechanisms care about.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator, Optional

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


def fold_request(
    request: IORequest, max_bytes: int, block: int = 4096, offset: int = 0,
) -> IORequest:
    """``request`` with its address wrapped into ``[0, max_bytes)``, then
    moved up by ``offset``.

    Modulo on block granularity, so alignment is kept; the size is
    clamped at ``max_bytes``.  Real traces address volumes far larger
    than the scaled-down simulated device; folding preserves the
    overwrite/reuse structure that drives GC while fitting the device.
    ``max_bytes`` must be a positive multiple of ``block`` (the callers
    check it once, not per request).  Time and op are unchanged.
    """
    lba = request.lba // block % (max_bytes // block) * block
    return IORequest(
        request.time, request.op, offset + lba, min(request.nbytes, max_bytes - lba),
    )


def _check_fold(max_bytes: int, block: int) -> None:
    if max_bytes <= 0 or max_bytes % block:
        raise ValueError("max_bytes must be a positive multiple of block")


#: a trace's write flag -> op
_OPS = (READ, WRITE)
_new_request = IORequest.__new__


def _request(time: float, write: int, lba: int, nbytes: int) -> IORequest:
    """A request from one row of a trace's columns, checked when the
    columns were: stored through the slots without checking again."""
    r = _new_request(IORequest)
    _set_time(r, time)
    _set_op(r, _OPS[write])
    _set_lba(r, lba)
    _set_nbytes(r, nbytes)
    return r


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
    """A timestamp-sorted sequence of requests, stored as four typed columns.

    ``times`` (``array("d")``, seconds), ``writes`` (a ``bytearray``
    flag, 1 for a write), ``lbas`` and ``sizes`` (``array("q")``,
    bytes, so below 2**63): 25 bytes a request and no object per
    request.  An :class:`IORequest` exists only while a consumer holds
    one: each iteration and each index builds new ones, equal field for
    field from one to the next but distinct objects, so in-flight state
    keys by the object that was submitted, never by position in the
    trace.

    ``Trace(name, requests)`` packs requests into the columns;
    :meth:`from_columns` takes columns a producer filled.  Both check
    the fields as :class:`IORequest` does and sort by time (stably)
    when the input is out of order.  The columns are shared, never
    copied, by the traces built from them: treat them as read-only.
    """

    __slots__ = ("name", "times", "writes", "lbas", "sizes")

    def __init__(self, name: str, requests: Iterable[IORequest]) -> None:
        times, writes, lbas, sizes = array("d"), bytearray(), array("q"), array("q")
        for r in requests:
            times.append(r.time)
            writes.append(r.op == WRITE)
            lbas.append(r.lba)
            sizes.append(r.nbytes)
        self._adopt(name, times, writes, lbas, sizes)

    @classmethod
    def from_columns(
        cls, name: str, times: array, writes: bytearray, lbas: array, sizes: array,
    ) -> "Trace":
        """A trace over the given columns, which it keeps, not copies.

        The fields are checked in one vectorised pass; the first bad
        request raises :class:`IORequest`'s own ``ValueError``.
        """
        trace = cls.__new__(cls)
        trace._adopt(name, times, writes, lbas, sizes)
        return trace

    def _adopt(
        self, name: str, times: array, writes: bytearray, lbas: array, sizes: array,
    ) -> None:
        n = len(times)
        if not len(writes) == len(lbas) == len(sizes) == n:
            raise ValueError(
                f"column lengths differ: {n}, {len(writes)}, {len(lbas)}, {len(sizes)}"
            )
        if n:
            t = np.frombuffer(times, dtype=np.float64)
            w = np.frombuffer(writes, dtype=np.uint8)
            lba = np.frombuffer(lbas, dtype=np.int64)
            size = np.frombuffer(sizes, dtype=np.int64)
            # IORequest's own checks; ~(t >= 0) also holds for NaN
            bad = ~(t >= 0) | (w > 1) | (lba < 0) | (size <= 0)
            if bad.any():
                i = int(bad.argmax())
                flag = writes[i]
                # the first bad request raises its own field's error
                IORequest(times[i], _OPS[flag] if flag < 2 else flag, lbas[i], sizes[i])
            if (t[1:] < t[:-1]).any():
                order = np.argsort(t, kind="stable")
                times = array("d", t[order].tobytes())
                writes = bytearray(w[order].tobytes())
                lbas = array("q", lba[order].tobytes())
                sizes = array("q", size[order].tobytes())
        self.name = name
        self.times = times
        self.writes = writes
        self.lbas = lbas
        self.sizes = sizes

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[IORequest]:
        return map(_request, self.times, self.writes, self.lbas, self.sizes)

    def __getitem__(self, idx: int) -> IORequest:
        """The request at ``idx``; a slice raises ``TypeError`` (see
        :meth:`head`)."""
        idx = index(idx)
        return _request(
            self.times[idx], self.writes[idx], self.lbas[idx], self.sizes[idx],
        )

    @property
    def duration(self) -> float:
        """Seconds from trace start to the last request's arrival."""
        return self.times[-1] if self.times else 0.0

    # ------------------------------------------------------------------
    def head(self, n: int) -> "Trace":
        """The first ``n`` requests as a new trace."""
        return Trace.from_columns(
            self.name, self.times[:n], self.writes[:n], self.lbas[:n], self.sizes[:n],
        )

    def folded(
        self, max_bytes: int, block: int = 4096, offset: int = 0,
    ) -> Iterator[IORequest]:
        """Every request folded by :func:`fold_request` onto ``max_bytes``
        and moved up by ``offset``, built folded as the iteration reaches
        it (one object a request)."""
        _check_fold(max_bytes, block)
        return _folded(self, max_bytes, block, offset)

    def scaled_addresses(self, max_bytes: int, block: int = 4096) -> "Trace":
        """Every request folded by :func:`fold_request` onto ``max_bytes``.

        The new trace shares this one's time and write columns.
        """
        _check_fold(max_bytes, block)
        span = max_bytes // block
        lba = np.frombuffer(self.lbas, dtype=np.int64) // block % span * block
        size = np.minimum(np.frombuffer(self.sizes, dtype=np.int64), max_bytes - lba)
        return Trace.from_columns(
            self.name, self.times, self.writes,
            array("q", lba.tobytes()), array("q", size.tobytes()),
        )

    # ------------------------------------------------------------------
    def stats(self, block: int = 4096) -> TraceStats:
        """Table II-style characteristics of this trace."""
        n = len(self)
        if n == 0:
            return TraceStats(self.name, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0)
        sizes = np.frombuffer(self.sizes, dtype=np.int64).astype(np.float64)
        is_read = np.frombuffer(self.writes, dtype=np.uint8) == 0
        reads = int(is_read.sum())
        writes = n - reads
        duration = max(self.duration, 1e-9)
        footprint: set[int] = set()
        sequential = 0
        prev_end: Optional[int] = None
        for lba, nbytes in zip(self.lbas, self.sizes):
            end = lba + nbytes
            footprint.update(range(lba // block, (end + block - 1) // block))
            if lba == prev_end:
                sequential += 1
            prev_end = end
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
        for time, nbytes in zip(self.times, self.sizes):
            ts.add(time, max(1, (nbytes + page - 1) // page))
        return ts.rates()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r}, n={len(self)}, dur={self.duration:.1f}s)"


def _folded(
    trace: Trace, max_bytes: int, block: int, offset: int,
) -> Iterator[IORequest]:
    span = max_bytes // block
    for time, write, lba, nbytes in zip(
        trace.times, trace.writes, trace.lbas, trace.sizes,
    ):
        lba = lba // block % span * block
        yield _request(time, write, offset + lba, min(nbytes, max_bytes - lba))
