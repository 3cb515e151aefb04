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
``queue``          any time spent waiting (SD hold, CPU queue, device
                   queue) — span *names* distinguish ``queue.sd`` /
                   ``queue.cpu`` / ``queue.flash``
``flash_program``  device occupancy of the media transfer itself
``gc_stall``       garbage-collection work charged to the request
``read_decompress`` decompression CPU on the read path
=================  ====================================================
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "Span", "Tracer"]

#: The canonical layer tags used by the EDC instrumentation.
LAYERS: Tuple[str, ...] = (
    "request",
    "estimate",
    "compress",
    "queue",
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
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while the span is open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (one trace-dump line).

        A still-open span emits ``end: null`` / ``duration: null`` with
        an explicit ``open: true`` flag, so truncated dumps cannot pass
        an unfinished span off as a real zero-length one.
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
        if self.end is None:
            d["open"] = True
        if self.tags:
            d["tags"] = dict(self.tags)
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"end={self.end:.6f}" if self.end is not None else "open"
        return f"Span#{self.span_id}({self.name!r}, {self.layer}, {state})"


class Tracer:
    """Collects finished spans, bounded by ``max_spans``.

    Spans beyond the cap are *timed but not retained* (``dropped``
    counts them), so a long replay cannot exhaust memory while still
    reporting exact layer totals through the metrics side.
    """

    def __init__(
        self, clock: Callable[[], float], max_spans: int = 200_000
    ) -> None:
        if max_spans < 0:
            raise ValueError(f"max_spans must be non-negative: {max_spans!r}")
        self.clock = clock
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self.open_spans = 0
        self._next_id = 0

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
        """Close ``span`` now (or at explicit ``end``) and retain it."""
        now = self.clock() if end is None else end
        if now < span.start:
            raise ValueError(
                f"span end {now!r} precedes its start {span.start!r}"
            )
        span.end = now
        self.open_spans -= 1
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1

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
        span = self.start(name, layer, parent=parent, start=start, **tags)
        self.finish(span, end=end)
        return span

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """``layer -> (span count, total seconds)`` over retained spans."""
        totals: Dict[str, Tuple[int, float]] = {}
        for s in self.spans:
            n, t = totals.get(s.layer, (0, 0.0))
            totals[s.layer] = (n + 1, t + s.duration)
        return totals
