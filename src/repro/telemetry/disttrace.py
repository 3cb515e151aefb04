"""Distributed request tracing across the cluster tier.

One :class:`DistTracer` owns a single shared
:class:`~repro.telemetry.spans.Tracer` for the whole fleet and threads
causal context through the cluster request path:

- a **root span** (``cluster.write`` / ``cluster.read``) opens when the
  :class:`~repro.cluster.routing.ClusterDistributer` admits a tenant
  request and closes when the last shard part completes — its interval
  is exactly the end-to-end latency the QoS scheduler records;
- admission delay splits into a **throttle** span (token-bucket wait,
  up to the bucket's ETA) and a **queue.qos** span (EDF arbitration
  wait after tokens were available);
- each shard sub-request gets a **shard part** span (one per split,
  joined at the completion barrier), and the per-device
  :class:`~repro.telemetry.probes.Telemetry` parents its device root
  span under the part via :meth:`take_parent` — so the single-device
  layer spans (``sd_hold`` / ``queue.cpu`` / ``estimate`` /
  ``compress`` / ``queue.flash`` / ``flash_program`` / ``gc_stall``)
  nest inside the cluster trace;
- migrations get their own root span with phase children
  (``migration.quiesce`` / ``migration.copy`` / ``migration.cleanup``);
  copy I/O and dual-write duplicates parent under them, so migration
  interference is attributed instead of invisible.

Tracing is purely observational: no hook ever schedules a simulation
event or perturbs scheduler state, so a traced run is bit-identical to
an untraced one (the tier-1 suite pins this).  An untraced cluster
holds ``None`` and gates every call site on ``is not None``.

Every in-flight map is keyed by the request object itself (requests
hash by identity), and each fact is traced once, where it happens:
every registered shard I/O leaves through the distributer's
completion / error door, which calls :meth:`DistTracer.io_done`, and
every part through its join barrier, which calls
:meth:`DistTracer.part_done` — so a finished run leaves every map
empty.

:func:`critical_path` walks a finished trace backward from the root's
end, always descending into the child whose (clipped) end is latest,
and emits explicit *self* segments for intervals no child covers — so
the returned segments partition the root interval exactly and their
durations sum to the end-to-end latency.
:func:`analyze_critical_paths` runs that conservation check over every
sampled request and aggregates where the fleet's time actually went.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.telemetry.spans import MAX_SPANS, Span, Tracer
from repro.traces.model import IORequest

__all__ = [
    "DistTracer",
    "TraceRecord",
    "TraceExemplar",
    "PathSegment",
    "TraceCheck",
    "CriticalPathReport",
    "child_index",
    "critical_path",
    "analyze_critical_paths",
]

#: Candidate-matching tolerance of the backward walk (seconds).
CP_EPS = 1e-9
#: Conservation tolerance of :func:`analyze_critical_paths` (seconds).
CONSERVATION_EPS = 1e-6
#: Slowest traces :func:`analyze_critical_paths` keeps for the report.
TOP_N = 3


@dataclass(frozen=True)
class TraceRecord:
    """Completion record of one traced cluster request."""

    trace_id: int
    tenant: str
    root_span_id: int
    #: end-to-end latency as the QoS scheduler recorded it
    latency: float
    #: shard parts the request was split into
    parts: int


@dataclass(frozen=True)
class TraceExemplar:
    """The trace behind a tenant's latency tail (links series to traces)."""

    tenant: str
    trace_id: int
    latency: float
    #: completion time on the simulation clock
    t: float


class _LiveTrace:
    """Bookkeeping for one in-flight traced request."""

    __slots__ = ("trace_id", "tenant", "root", "parts")

    def __init__(self, trace_id: int, tenant: str, root: Span) -> None:
        self.trace_id = trace_id
        self.tenant = tenant
        self.root = root
        self.parts = 0


class DistTracer:
    """Cluster-wide causal tracing over one shared span tracer.

    Every hook is called synchronously from the cluster tier and only
    records spans — it never schedules events, so attaching a tracer
    cannot change the simulated outcome.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.tracer = Tracer(lambda: sim.now)
        #: device request -> parent span, consumed by the per-shard
        #: Telemetry's ``parent_for`` hook at device arrival (or dropped
        #: by :meth:`io_done` for I/O that never arrives as a request)
        self.ctx: Dict[IORequest, Span] = {}
        #: completed-trace records keyed by root span id
        self.completed: Dict[int, TraceRecord] = {}
        #: per-tenant worst-latency exemplar
        self.exemplars: Dict[str, TraceExemplar] = {}
        self._next_trace = 0
        self._live: Dict[IORequest, _LiveTrace] = {}
        self._parts: Dict[IORequest, Span] = {}
        #: traced request -> token-availability ETA recorded at queue time
        self._queued: Dict[IORequest, float] = {}
        #: range index -> (migration root span, current phase span)
        self._migrations: Dict[int, Tuple[Span, Span]] = {}
        #: replica/hedge attempt request -> its span (replication)
        self._attempts: Dict[IORequest, Span] = {}
        #: range index -> rebuild root span (re-replication)
        self._rebuilds: Dict[int, Span] = {}

    # ------------------------------------------------------------------
    # request path (hooks of ClusterDistributer / QoSScheduler)
    # ------------------------------------------------------------------
    def request_submitted(self, request, tenant: str) -> None:
        """Open the per-request root span at admission time."""
        tid = self._next_trace
        self._next_trace += 1
        root = self.tracer.start(
            "cluster.write" if request.is_write else "cluster.read",
            layer="request",
            tenant=tenant,
            trace_id=tid,
            lba=request.lba,
            nbytes=request.nbytes,
        )
        self._live[request] = _LiveTrace(tid, tenant, root)

    def request_queued(self, st, request, now: float, eta: float) -> None:
        """Scheduler hook: the request missed direct admission at ``now``.

        ``eta`` is the token-availability instant; the gap up to it is
        throttle wait, anything beyond is arbitration queueing.  Only
        traced requests count: internal tenants' requests (rebuild
        reads) never reach :meth:`request_dispatched`.
        """
        if request in self._live:
            self._queued[request] = eta

    def request_dispatched(self, request, arrival: float) -> None:
        """The scheduler handed the request to the router."""
        rec = self._live.get(request)
        if rec is None:
            return
        now = self.sim.now
        eta = self._queued.pop(request, arrival)
        if now - arrival <= CP_EPS:
            return  # admitted synchronously: no admission delay to split
        split = min(max(eta, arrival), now)
        if split - arrival > CP_EPS:
            self.tracer.record(
                "throttle", "throttle", arrival, split, parent=rec.root,
                tenant=rec.tenant,
            )
        if now - split > CP_EPS:
            self.tracer.record(
                "queue.qos", "queue", split, now, parent=rec.root,
                tenant=rec.tenant,
            )

    def part_issued(self, request, part, shard: str) -> None:
        """One shard sub-request is about to be submitted to ``shard``."""
        rec = self._live.get(request)
        if rec is None:
            return
        rec.parts += 1
        span = self.tracer.start(
            "shard.part", layer="shard", parent=rec.root,
            shard=shard, lba=part.lba, nbytes=part.nbytes,
        )
        self._parts[part] = span
        self.ctx[part] = span

    def part_done(self, part) -> None:
        """The part's join barrier fired (acked, read or given up)."""
        span = self._parts.pop(part, None)
        if span is not None:
            self.tracer.finish(span)
        self.ctx.pop(part, None)

    def request_done(self, request, latency: float) -> None:
        """The join barrier fired: close the root and record the trace."""
        rec = self._live.pop(request, None)
        if rec is None:
            return
        self.tracer.finish(rec.root)
        if len(self.completed) < MAX_SPANS:
            self.completed[rec.root.span_id] = TraceRecord(
                trace_id=rec.trace_id,
                tenant=rec.tenant,
                root_span_id=rec.root.span_id,
                latency=latency,
                parts=rec.parts,
            )
        now = self.sim.now
        best = self.exemplars.get(rec.tenant)
        if best is None or latency >= best.latency:
            self.exemplars[rec.tenant] = TraceExemplar(
                tenant=rec.tenant, trace_id=rec.trace_id,
                latency=latency, t=now,
            )

    # ------------------------------------------------------------------
    # replication path (hooks of ReplicationManager)
    # ------------------------------------------------------------------
    def attempt_issued(self, name: str, part, dup, shard: str) -> None:
        """Attempt ``dup`` of ``part`` is about to be submitted to
        ``shard``: ``replica.write`` (quorum fan-out), ``replica.read``
        (primary or failover) or ``shard.hedge`` (hedged read)."""
        own = self.ctx.pop(part, None)
        if own is not None:
            # The part's first attempt is the part itself: its device
            # work nests directly under ``shard.part``.  Attempt spans
            # mark the *extra* work of redundancy (secondary fan-out,
            # failover, hedges, retries).
            self.ctx[dup] = own
            return
        span = self.tracer.start(
            name, layer="replica", parent=self._parts.get(part),
            shard=shard, lba=dup.lba, nbytes=dup.nbytes,
        )
        self._attempts[dup] = span
        self.ctx[dup] = span

    def io_done(self, request) -> None:
        """A registered shard I/O completed or failed: close its attempt
        span, if it is one, and drop its parent context."""
        span = self._attempts.pop(request, None)
        if span is not None:
            self.tracer.finish(span)
        self.ctx.pop(request, None)

    def part_retry(self, part, attempt: int, start: float, end: float) -> None:
        """Record the backoff wait before whole-part retry ``attempt``."""
        self.tracer.record(
            "shard.retry_backoff", "retry", start, end,
            parent=self._parts.get(part), attempt=attempt,
        )

    def rebuild_started(self, range_idx: int, src: str, dst: str) -> None:
        self._rebuilds[range_idx] = self.tracer.start(
            "rebuild", layer="rebuild",
            range_idx=range_idx, src=src, dst=dst,
        )

    def rebuild_io(self, range_idx: int, request) -> None:
        """Parent a rebuild copy read/ingest under its rebuild root, so
        recovery traffic stays off tenant critical paths."""
        root = self._rebuilds.get(range_idx)
        if root is not None:
            self.ctx[request] = root

    def rebuild_done(self, range_idx: int) -> None:
        span = self._rebuilds.pop(range_idx, None)
        if span is not None:
            self.tracer.finish(span)

    # ------------------------------------------------------------------
    # device parenting (installed as each shard Telemetry's parent_for)
    # ------------------------------------------------------------------
    def take_parent(self, request) -> Optional[Span]:
        """Pop the parent span registered for a device-bound request.

        Safe because a shard ``submit`` reaches the device's
        ``request_arrived`` synchronously in the same event.
        """
        return self.ctx.pop(request, None)

    # ------------------------------------------------------------------
    # migration path (hooks of MigrationOrchestrator / routing)
    # ------------------------------------------------------------------
    def migration_started(self, m) -> None:
        root = self.tracer.start(
            "migration", layer="migration",
            range_idx=m.range_idx, src=m.src, dst=m.dst,
        )
        phase = self.tracer.start(
            "migration.quiesce", layer="migration", parent=root,
        )
        self._migrations[m.range_idx] = (root, phase)

    def migration_phase(self, m, phase: str) -> None:
        entry = self._migrations.get(m.range_idx)
        if entry is None:
            return
        root, current = entry
        self.tracer.finish(current)
        nxt = self.tracer.start(
            f"migration.{phase}", layer="migration", parent=root,
        )
        self._migrations[m.range_idx] = (root, nxt)

    def migration_done(self, m) -> None:
        entry = self._migrations.pop(m.range_idx, None)
        if entry is None:
            return
        root, current = entry
        self.tracer.finish(current)
        self.tracer.finish(root)

    def copy_io(self, m, request) -> None:
        """Parent a migration copy read/write under the copy phase."""
        entry = self._migrations.get(m.range_idx)
        if entry is not None:
            self.ctx[request] = entry[1]

    def dual_write_issued(self, range_idx: int, dup, dst: str) -> None:
        """Parent a dual-write duplicate under its migration's root span."""
        entry = self._migrations.get(range_idx)
        if entry is not None:
            self.ctx[dup] = entry[0]

    # ------------------------------------------------------------------
    def open_traces(self) -> int:
        return len(self._live)

    def exposition_exemplars(
        self, prefix: str = "cluster.tenant_p95"
    ) -> Dict[str, Tuple[Dict[str, str], float, float]]:
        """Per-tenant exemplars keyed by series name, for the exposition
        renderer: ``{series: ({"trace_id": ...}, latency, t)}``."""
        out: Dict[str, Tuple[Dict[str, str], float, float]] = {}
        for tenant, ex in self.exemplars.items():
            out[f"{prefix}.{tenant}"] = (
                {"trace_id": str(ex.trace_id)}, ex.latency, ex.t,
            )
        return out


# ----------------------------------------------------------------------
# critical-path analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PathSegment:
    """One interval of the critical path.

    ``kind`` is ``"span"`` when a child span covers the interval and
    ``"self"`` when the time belongs to the owning span itself (no
    child covered it — untraced work or genuine self-time).
    """

    start: float
    end: float
    layer: str
    name: str
    span_id: int
    kind: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def child_index(tracer) -> Dict[int, List[Span]]:
    """``parent span id -> children`` over the tracer's retained spans."""
    kids: Dict[int, List[Span]] = {}
    for s in tracer:
        if s.parent_id is not None:
            kids.setdefault(s.parent_id, []).append(s)
    return kids


def critical_path(
    root: Span, kids: Dict[int, List[Span]]
) -> List[PathSegment]:
    """The longest causal chain under ``root``, as disjoint segments.

    Walks backward from ``root.end``: at every cursor the child whose
    (clipped) end is latest is descended into; intervals no child
    covers become ``self`` segments of the owning span.  The segments
    partition ``[root.start, root.end]`` exactly, so their durations sum
    to the root's duration — the conservation invariant
    :func:`analyze_critical_paths` checks per request.
    """
    if root.end is None:
        raise ValueError(f"critical_path needs a finished root: {root!r}")
    eps = CP_EPS
    segs: List[PathSegment] = []

    def walk(span: Span, lo: float, hi: float) -> None:
        leaf = not kids.get(span.span_id)
        cands = [] if leaf else [
            c for c in kids[span.span_id]
            if c.end is not None and c.end - c.start > eps
        ]
        t = hi
        while t - lo > eps:
            best: Optional[Span] = None
            best_key: Tuple[float, float] = (0.0, 0.0)
            for c in cands:
                if c.start >= t - eps or c.end <= lo + eps:
                    continue  # no overlap with [lo, t)
                key = (min(c.end, t), c.start)
                if best is None or key > best_key:
                    best, best_key = c, key
            if best is None:
                # A childless span owns its whole interval ("span" work);
                # uncovered time under a span *with* children is genuine
                # self time — untraced work between its children.
                segs.append(PathSegment(
                    lo, t, span.layer,
                    span.name if leaf else f"{span.name}.self",
                    span.span_id, "span" if leaf else "self",
                ))
                return
            b_end = min(best.end, t)
            b_start = max(best.start, lo)
            if t - b_end > eps:
                segs.append(PathSegment(
                    b_end, t, span.layer, f"{span.name}.self",
                    span.span_id, "self",
                ))
            walk(best, b_start, b_end)
            t = b_start

    walk(root, root.start, root.end)
    segs.sort(key=lambda s: (s.start, s.end))
    return segs


@dataclass(frozen=True)
class TraceCheck:
    """Conservation verdict for one sampled request."""

    trace_id: int
    tenant: str
    root_span_id: int
    latency: float
    path_total: float
    segments: Tuple[PathSegment, ...]

    @property
    def residual(self) -> float:
        return self.path_total - self.latency


@dataclass
class CriticalPathReport:
    """Fleet-wide critical-path attribution + the conservation check."""

    n_traces: int = 0
    violations: List[str] = field(default_factory=list)
    #: critical-path seconds per layer (child spans on the path)
    layer_seconds: Dict[str, float] = field(default_factory=dict)
    #: critical-path seconds attributed to span self-time / untraced work
    self_seconds: float = 0.0
    slowest: List[TraceCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_seconds(self) -> float:
        return sum(self.layer_seconds.values()) + self.self_seconds

    def render(self) -> str:
        lines = [
            f"critical path: {self.n_traces} traces, conservation "
            f"{'OK' if self.ok else 'FAIL'} (eps {CONSERVATION_EPS:g})"
        ]
        total = self.total_seconds
        for layer in sorted(
            self.layer_seconds, key=lambda k: -self.layer_seconds[k]
        ):
            secs = self.layer_seconds[layer]
            share = secs / total if total > 0 else 0.0
            lines.append(f"  {layer:<16} {secs * 1e3:10.3f} ms  {share:6.1%}")
        if total > 0:
            lines.append(
                f"  {'(self/untraced)':<16} {self.self_seconds * 1e3:10.3f} ms"
                f"  {self.self_seconds / total:6.1%}"
            )
        for chk in self.slowest:
            chain = " -> ".join(
                f"{s.name}:{s.duration * 1e3:.2f}ms"
                for s in chk.segments[:8]
            )
            more = len(chk.segments) - 8
            if more > 0:
                chain += f" -> (+{more} more)"
            lines.append(
                f"  slowest [{chk.tenant} trace {chk.trace_id}] "
                f"{chk.latency * 1e3:.3f} ms: {chain}"
            )
        for msg in self.violations[:5]:
            lines.append(f"  VIOLATION: {msg}")
        if len(self.violations) > 5:
            lines.append(f"  ... {len(self.violations) - 5} more violations")
        return "\n".join(lines)


def analyze_critical_paths(dist: DistTracer) -> CriticalPathReport:
    """Check conservation and aggregate attribution over every root.

    For every completed cluster root span, the critical-path segment
    durations must sum to the end-to-end latency the scheduler recorded
    (within :data:`CONSERVATION_EPS`) — throttle, QoS queueing, shard
    splits, device layers and the join all accounted for.  Violations
    name the trace; the :data:`TOP_N` slowest traces are kept.
    """
    report = CriticalPathReport()
    kids = child_index(dist.tracer)
    for span in dist.tracer:
        if (span.parent_id is not None or span.layer != "request"
                or not span.name.startswith("cluster.")):
            continue
        rec = dist.completed.get(span.span_id)
        if rec is None:
            continue  # root retained but completion record capped out
        segs = critical_path(span, kids)
        total = sum(s.duration for s in segs)
        report.n_traces += 1
        if abs(total - rec.latency) > CONSERVATION_EPS:
            report.violations.append(
                f"trace {rec.trace_id} ({rec.tenant}): critical path "
                f"{total:.9f}s != latency {rec.latency:.9f}s "
                f"(residual {total - rec.latency:+.3e}s)"
            )
        for seg in segs:
            if seg.kind == "self":
                report.self_seconds += seg.duration
            else:
                report.layer_seconds[seg.layer] = (
                    report.layer_seconds.get(seg.layer, 0.0) + seg.duration
                )
        check = TraceCheck(
            trace_id=rec.trace_id, tenant=rec.tenant,
            root_span_id=span.span_id, latency=rec.latency,
            path_total=total, segments=tuple(segs),
        )
        report.slowest.append(check)
        report.slowest.sort(key=lambda c: -c.latency)
        del report.slowest[TOP_N:]
    return report
