"""The :class:`Telemetry` facade: span tracing + per-layer accounting.

One :class:`Telemetry` object owns a :class:`~repro.telemetry.spans.Tracer`,
a :class:`~repro.telemetry.histograms.MetricsRegistry` of latency and
GC distributions, and the write/read per-layer accounting.
:meth:`Telemetry.bind_device` subscribes it to the device's
request-lifecycle events and to the lower layers (queue servers'
``job``, the SSDs' ``write_service``, the FTLs' ``gc``) through the
stack's one event seam (:mod:`repro.sim.events`).

Telemetry keeps no counter or gauge: request, flash-operation, GC and
band counts, write amplification and utilisation each have one owner
below it (the device's latency recorders, ``SimulatedSSD.stats``,
``GcStats``, ``ElasticPolicy.band_counts``, the FTL statistics and the
queue servers), and the sampler's series read them there.

Instrumentation is **opt-in and free when disabled**: a stack nothing
subscribed to pays one truth test per emit site and runs no telemetry
code.

The write-path accounting is constructed so that, per request,

``response = queue + estimate + compress + flash_program + gc_stall``

holds to float precision on a single-SSD backend: each component is a
difference of event timestamps on the same simulation clock (``queue``
aggregates SD hold + CPU-queue wait + device-queue wait).  On RAID
backends member transfers overlap, so ``flash_program`` is the *sum* of
member service times and the identity becomes an upper bound; the
breakdown table reports the residual either way.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, Optional, Tuple

from repro.flash.introspect import queues_of, ssds_of
from repro.sim.queueing import Job
from repro.telemetry.histograms import MetricsRegistry
from repro.telemetry.spans import Span, Tracer

__all__ = ["Telemetry"]

#: Layers of the write-path breakdown, in presentation order.
WRITE_LAYERS: Tuple[str, ...] = (
    "queue",
    "estimate",
    "compress",
    "flash_program",
    "gc_stall",
)

#: Layers of the read-path breakdown.
READ_LAYERS: Tuple[str, ...] = ("queue", "flash_program", "read_decompress")


class _WriteRunRec:
    """Timing record for one flush unit (1..n merged write requests)."""

    __slots__ = (
        "codec",
        "estimate_time",
        "t_enqueue",
        "cpu_wait",
        "cpu_service",
        "t_commit",
        "flash_service",
        "gc_stall",
        "gc_per_job",
        "anchor",
    )

    def __init__(
        self,
        codec: str,
        estimate_time: float,
        t_enqueue: float,
        anchor: Optional[Span],
    ) -> None:
        self.codec = codec
        self.estimate_time = estimate_time
        self.t_enqueue = t_enqueue
        self.cpu_wait = 0.0
        self.cpu_service = 0.0
        self.t_commit = t_enqueue
        self.flash_service = 0.0
        self.gc_stall = 0.0
        self.gc_per_job: Deque[float] = deque()
        self.anchor = anchor

    def layers(self, now: float) -> Tuple[float, float, float, float, float]:
        """``(flash_wait, estimate, compress, flash_program, gc_stall)``
        seconds of this run, completed at ``now``: the write-path
        attribution of both the tracer and the decision auditor.  A
        merged request queues for its SD hold + cpu_wait + flash_wait.
        """
        flash_total = now - self.t_commit
        service = min(self.flash_service, flash_total)
        gc = min(self.gc_stall, service)
        est = min(self.estimate_time, self.cpu_service)
        return (flash_total - service, est, self.cpu_service - est,
                service - gc, gc)


class _ReadRec:
    """Timing record for one read request (1..n pieces)."""

    __slots__ = (
        "span",
        "queue_wait",
        "flash_service",
        "decompress",
    )

    def __init__(self, span: Span) -> None:
        self.span = span
        self.queue_wait = 0.0
        self.flash_service = 0.0
        self.decompress = 0.0


class Telemetry:
    """Aggregates tracing + metrics for one simulated device stack."""

    def __init__(self, sim, tracer: Optional[Tracer] = None) -> None:
        self.sim = sim
        # A shared tracer (cluster tracing) threads all shards' spans
        # into one causal trace; by default each Telemetry owns its own.
        self.tracer = tracer if tracer is not None else Tracer(lambda: sim.now)
        #: optional hook resolving a parent span for an arriving request
        #: (distributed tracing parents device roots under shard parts)
        self.parent_for: Optional[Callable[[object], Optional[Span]]] = None
        self.metrics = MetricsRegistry()

        # per-layer totals (seconds) over completed requests
        self.write_layers: Dict[str, float] = {k: 0.0 for k in WRITE_LAYERS}
        self.read_layers: Dict[str, float] = {k: 0.0 for k in READ_LAYERS}

        #: open per-request root spans, keyed by the request
        self._req: Dict[object, Span] = {}
        #: open read records, keyed by the request
        self._reads: Dict[object, _ReadRec] = {}
        #: flash-job correlation queues, keyed by normalised extent key
        self._pending_w: Dict[Hashable, Deque[_WriteRunRec]] = {}
        self._pending_r: Dict[Hashable, Deque[_ReadRec]] = {}
        #: record currently issuing a device write (set around the
        #: synchronous ``distributer.write`` call)
        self._issuing_w: Optional[_WriteRunRec] = None

    # ------------------------------------------------------------------
    # stack wiring
    # ------------------------------------------------------------------
    def bind_device(self, device) -> None:
        """Subscribe to ``device`` and the servers/SSDs/FTLs beneath."""
        device.observers["telemetry"] = self
        for kind, handler in (
            ("request", self.request_arrived),
            ("write_planned", self.write_run_planned),
            ("write_cpu_done", self.write_cpu_done),
            ("write_issue_begin", self.write_issue_begin),
            ("write_issue_end", self.write_issue_end),
            ("write_done", self.write_run_done),
            ("read_started", self.read_started),
            ("read_issue", self.read_issue),
            ("read_decompressed", self.read_decompress_done),
            ("read_done", self.read_done),
        ):
            device.events.subscribe(kind, handler)
        for queue in queues_of(device.backend):
            queue.events.subscribe("job", self._on_server_job)
        for ssd in ssds_of(device.backend):
            ssd.events.subscribe("write_service", self._on_ssd_service)
            ssd.ftl.events.subscribe("gc", self._on_gc)

    # ------------------------------------------------------------------
    # device events: request lifecycle
    # ------------------------------------------------------------------
    def request_arrived(self, request) -> None:
        """Open the per-request root span at arrival time."""
        parent = (
            self.parent_for(request) if self.parent_for is not None else None
        )
        self._req[request] = self.tracer.start(
            "write" if request.is_write else "read",
            layer="request",
            parent=parent,
            lba=request.lba,
            nbytes=request.nbytes,
        )

    # -- write path -----------------------------------------------------
    def write_run_planned(self, run, run_ids, hint, selected, plan) -> None:
        """A flush unit left the SD and was planned; CPU work may follow."""
        anchor = None
        for ref in run.refs:
            anchor = self._req.get(ref)
            if anchor is not None:
                break
        run.note("telemetry", _WriteRunRec(
            plan.codec_name, plan.estimate_time, self.sim.now, anchor,
        ))

    def write_cpu_done(self, run, job: Optional[Job]) -> None:
        """Compression CPU finished (``job`` is None on the zero-cost path)."""
        rec = run.notes["telemetry"]
        now = self.sim.now
        rec.t_commit = now
        if job is not None:
            rec.cpu_wait = job.start - rec.t_enqueue
            rec.cpu_service = now - job.start
            est = min(rec.estimate_time, rec.cpu_service)
            if rec.cpu_wait > 0:
                self.tracer.record(
                    "queue.cpu", "queue", rec.t_enqueue, job.start,
                    parent=rec.anchor,
                )
            if est > 0:
                self.tracer.record(
                    "estimate", "estimate", job.start, job.start + est,
                    parent=rec.anchor,
                )
            if rec.cpu_service > est:
                self.tracer.record(
                    "compress", "compress", job.start + est, now,
                    parent=rec.anchor, codec=rec.codec,
                )

    def write_issue_begin(self, run, key: Hashable) -> None:
        """About to issue the device write of ``run`` under ``key``."""
        rec = run.notes["telemetry"]
        self._pending_w.setdefault(key, deque()).append(rec)
        self._issuing_w = rec

    def write_issue_end(self, run) -> None:
        self._issuing_w = None

    def write_run_done(self, run) -> None:
        """Device write completed: attribute layers per merged request."""
        rec = run.notes["telemetry"]
        now = self.sim.now
        flash_wait, est, compress, program, gc = rec.layers(now)
        wl = self.write_layers
        m = self.metrics
        resp_hist = m.histogram("write.response")
        for arrival, ref in zip(run.arrivals, run.refs):
            sd_hold = rec.t_enqueue - arrival
            queue = sd_hold + rec.cpu_wait + flash_wait
            resp = now - arrival
            wl["queue"] += queue
            wl["estimate"] += est
            wl["compress"] += compress
            wl["flash_program"] += program
            wl["gc_stall"] += gc
            resp_hist.add(resp)
            m.histogram("write.queue").add(queue)
            m.histogram("write.codec_cpu").add(est + compress)
            span = self._req.pop(ref, None)
            if span is not None:
                if sd_hold > 0:
                    self.tracer.record(
                        "queue.sd", "queue", arrival, rec.t_enqueue,
                        parent=span,
                    )
                self.tracer.finish(span)

    # -- read path ------------------------------------------------------
    def read_started(self, request) -> None:
        self._reads[request] = _ReadRec(self._req.pop(request))

    def read_issue(self, request, key: Hashable) -> None:
        """About to issue one piece of ``request``'s device read under ``key``."""
        self._pending_r.setdefault(key, deque()).append(self._reads[request])

    def read_decompress_done(self, request, job: Job) -> None:
        rec = self._reads[request]
        wait = job.start - job.arrival
        rec.queue_wait += wait
        rec.decompress += job.completion - job.start
        if wait > 0:
            self.tracer.record(
                "queue.cpu", "queue", job.arrival, job.start, parent=rec.span,
            )
        self.tracer.record(
            "read_decompress", "read_decompress",
            job.start, job.completion, parent=rec.span,
        )

    def read_done(self, request, latency: float) -> None:
        rec = self._reads.pop(request)
        rl = self.read_layers
        rl["queue"] += rec.queue_wait
        rl["flash_program"] += rec.flash_service
        rl["read_decompress"] += rec.decompress
        self.metrics.histogram("read.response").add(latency)
        self.tracer.finish(rec.span)

    # ------------------------------------------------------------------
    # lower-layer callbacks
    # ------------------------------------------------------------------
    @staticmethod
    def _norm_key(key: Hashable) -> Hashable:
        """RAID members sub-key as ``(key, i)``; fold back to the root."""
        return key[0] if isinstance(key, tuple) else key

    def _on_ssd_service(
        self, key: Hashable, service: float, gc_stall: float
    ) -> None:
        """SSD ``write_service`` event, emitted synchronously at submit."""
        rec = self._issuing_w
        if rec is not None:
            rec.flash_service += service
            rec.gc_stall += gc_stall
            rec.gc_per_job.append(gc_stall)

    def _on_server_job(self, job: Job) -> None:
        """Queue-server observer: correlate completions back to requests."""
        tag = job.tag
        if not (isinstance(tag, tuple) and len(tag) == 2):
            return
        op, key = tag
        key = self._norm_key(key)
        if op == "W":
            dq = self._pending_w.get(key)
            if not dq:
                return
            rec = dq.popleft()
            if not dq:
                del self._pending_w[key]
            gc = rec.gc_per_job.popleft() if rec.gc_per_job else 0.0
            gc = min(gc, job.service_time)
            if job.start > job.arrival:
                self.tracer.record(
                    "queue.flash", "queue", job.arrival, job.start,
                    parent=rec.anchor,
                )
            self.tracer.record(
                "flash_program", "flash_program",
                job.start, job.completion - gc, parent=rec.anchor,
            )
            if gc > 0:
                self.tracer.record(
                    "gc_stall", "gc_stall",
                    job.completion - gc, job.completion, parent=rec.anchor,
                )
            self.metrics.histogram("flash.write_wait").add(job.wait)
            self.metrics.histogram("flash.write_service").add(job.service_time)
        elif op == "R":
            dq = self._pending_r.get(key)
            if not dq:
                return
            rec = dq.popleft()
            if not dq:
                del self._pending_r[key]
            rec.queue_wait += job.wait
            rec.flash_service += job.service_time
            if job.start > job.arrival:
                self.tracer.record(
                    "queue.flash", "queue", job.arrival, job.start,
                    parent=rec.span,
                )
            self.tracer.record(
                "flash_read", "flash_program",
                job.start, job.completion, parent=rec.span,
            )
            self.metrics.histogram("flash.read_wait").add(job.wait)
            self.metrics.histogram("flash.read_service").add(job.service_time)

    def _on_gc(self, ftl, victim: int, moved: int, reclaimed: int) -> None:
        self.metrics.histogram("gc.moved_per_collection").add(float(moved))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def write_breakdown(self) -> Dict[str, float]:
        """Per-layer seconds over the write path + the sum-check fields."""
        return self._breakdown("write", self.write_layers)

    def read_breakdown(self) -> Dict[str, float]:
        """Per-layer seconds over the read path (pieces may overlap)."""
        return self._breakdown("read", self.read_layers)

    def _breakdown(self, path: str, layers: Dict[str, float]) -> Dict[str, float]:
        # The ``<path>.response`` histogram owns the response count and
        # total; read it without creating an empty family, which would
        # add lines to the exposition.
        h = self.metrics.histograms.get(f"{path}.response")
        n, total = (0, 0.0) if h is None else (h.count, h.sum)
        out = dict(layers)
        out["end_to_end"] = total
        out["n_requests"] = float(n)
        out["unattributed"] = total - sum(layers.values())
        return out
