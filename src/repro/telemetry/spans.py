"""Span tracing keyed to the simulation clock.

A :class:`Span` is one timed interval of work attributed to a *layer*
of the stack; spans nest through ``parent_id`` so a per-request root
span can own the CPU, queue and flash intervals that produced its
response time.  The tracer never reads wall-clock time: it is
constructed with a ``clock`` callable (normally ``lambda: sim.now``) so
traces are exactly as deterministic as the simulation itself.

The per-layer vocabulary follows the EDC write/read path:

=================  ====================================================
``request``        per-request root spans (end-to-end response)
``estimate``       sampled compressibility estimation CPU
``compress``       codec compression CPU
``queue``          time spent waiting in a queue (CPU, device) — span
                   *names* distinguish ``queue.cpu`` / ``queue.flash``
``sd_hold``        the Sequentiality Detector holding a write run open
``flash_program``  device occupancy of the media transfer itself
``gc_stall``       garbage-collection work charged to the request
``read_decompress`` decompression CPU on the read path
=================  ====================================================
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence, Sized
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "MAX_SPANS", "RowView", "Span", "Tracer"]

#: finished spans a tracer retains; later ones are timed, not kept
MAX_SPANS = 200_000

#: The canonical layer tags used by the EDC instrumentation.
LAYERS: Tuple[str, ...] = (
    "request",
    "estimate",
    "compress",
    "queue",
    "sd_hold",
    "flash_program",
    "gc_stall",
    "read_decompress",
)


class Span:
    """One timed interval of attributed work on the simulation clock."""

    __slots__ = ("span_id", "parent_id", "name", "layer", "start", "end", "tags")

    def __init__(
        self,
        span_id: int,
        name: str,
        layer: str,
        start: float,
        parent_id: Optional[int] = None,
        tags: Optional[Dict[str, object]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.start = start
        self.end: Optional[float] = None
        self.tags = tags

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while the span is open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (one trace-dump line).

        A still-open span emits ``end: null`` / ``duration: null``, so it
        cannot pass for a real zero-length one.
        """
        d: Dict[str, object] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "duration": self.duration if self.end is not None else None,
        }
        if self.tags:
            d["tags"] = dict(self.tags)
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"end={self.end:.6f}" if self.end is not None else "open"
        return f"Span#{self.span_id}({self.name!r}, {self.layer}, {state})"


class RowView(Sequence):
    """Read-only sequence over an observer's stored rows: ``len(rows)``
    is the row count and ``build(i)`` makes the object row ``i`` stands
    for, on each read, so the store keeps no object per record."""

    __slots__ = ("_rows", "_build")

    def __init__(self, rows: Sized, build: Callable[[int], object]) -> None:
        self._rows = rows
        self._build = build

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        n = len(self._rows)
        if isinstance(i, slice):
            return [self._build(j) for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("row index out of range")
        return self._build(i)


class Tracer:
    """Collects finished spans, bounded by :data:`MAX_SPANS`.

    Spans beyond the cap are *timed but not retained* (``dropped``
    counts them), so a long replay cannot exhaust memory; the exact
    per-layer totals are :class:`~repro.telemetry.probes.Telemetry`'s
    ``write_layers`` / ``read_layers``, which do not depend on retention.

    A retained span is a row of typed columns: id, parent id (``-1``:
    none), start, end, a code into an interned ``(name, layer, tag keys)``
    table and its tag values (``None`` or a tuple).
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.dropped = 0
        self.open_spans = 0
        self._next_id = 0
        self._ids = array("q")
        self._parents = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._codes = array("I")
        self._tags: List[Optional[tuple]] = []
        self._kinds: List[Tuple[str, str, Tuple[str, ...]]] = []
        self._code_of: Dict[Tuple[str, str, Tuple[str, ...]], int] = {}
        #: the retained spans, a read-only sequence built on read
        self.spans: Sequence[Span] = RowView(self._ids, self._span_at)

    def start(
        self,
        name: str,
        layer: str = "request",
        parent: Optional[Span] = None,
        start: Optional[float] = None,
        **tags: object,
    ) -> Span:
        """Open a span now (or at explicit ``start``)."""
        sid = self._next_id
        self._next_id += 1
        self.open_spans += 1
        return Span(
            sid,
            name,
            layer,
            self.clock() if start is None else start,
            parent_id=None if parent is None else parent.span_id,
            tags=tags or None,
        )

    def finish(self, span: Span, end: Optional[float] = None) -> None:
        """Close ``span`` now (or at explicit ``end``) and keep its row."""
        now = self.clock() if end is None else end
        start = span.start
        if now < start:
            raise ValueError(f"span end {now!r} precedes its start {start!r}")
        span.end = now
        self.open_spans -= 1
        if len(self._ids) >= MAX_SPANS:
            self.dropped += 1
            return
        name, layer, tags = span.name, span.layer, span.tags
        kind = (name, layer, tuple(tags) if tags else ())
        code = self._code_of.get(kind)
        if code is None:
            code = self._code_of[kind] = len(self._kinds)
            self._kinds.append(kind)
        parent_id = span.parent_id
        self._ids.append(span.span_id)
        self._parents.append(-1 if parent_id is None else parent_id)
        self._starts.append(start)
        self._ends.append(now)
        self._codes.append(code)
        self._tags.append(tuple(tags.values()) if tags else None)

    def record(
        self,
        name: str,
        layer: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **tags: object,
    ) -> Span:
        """Start + finish in one call, for intervals known after the fact."""
        sid = self._next_id
        self._next_id += 1
        self.open_spans += 1
        span = Span(sid, name, layer, start,
                    None if parent is None else parent.span_id, tags or None)
        self.finish(span, end)
        return span

    def _span_at(self, i: int) -> Span:
        name, layer, keys = self._kinds[self._codes[i]]
        parent_id = self._parents[i]
        values = self._tags[i]
        span = Span(
            self._ids[i], name, layer, self._starts[i],
            None if parent_id < 0 else parent_id,
            None if values is None else dict(zip(keys, values)),
        )
        span.end = self._ends[i]
        return span

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self._ids)
