"""Ring-buffered time series and the simulation-clock periodic sampler.

The PR-1 telemetry answers "where did the time go" per request; this
module answers "what did the system look like *over* time".  A
:class:`TimeSeriesSampler` registers scrape callables for a fixed metric
vocabulary (IOPS, active band, codec shares, compression ratio, slot
occupancy, queue depths, GC activity, write amplification, flash busy
fraction) and ticks them on a daemon :class:`~repro.sim.engine.PeriodicEvent`
— the sampler rides the simulation clock, never wall time, and cannot
keep the event loop alive once the workload drains.

Each sampled value lands in a :class:`RingSeries` (fixed capacity, old
points dropped, drop count kept), so memory stays constant no matter how
long the replay runs.  Band switches are recorded out-of-band as exact
:class:`MarkerSeries` events via the band ladder's ``select`` event, so a
switch between two ticks is never lost.

Sinks over the sampled state live next door:
:func:`~repro.telemetry.exposition.render_exposition` (Prometheus-style
text), :func:`dump_timeseries_jsonl` (JSONL dump) and
:func:`~repro.telemetry.dashboard.render_dashboard` (ASCII panels).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, TextIO, Tuple

from repro.flash.introspect import (
    ftls_of,
    queues_of,
    ssds_served,
    write_amplification,
)
from repro.flash.raid import RAIS5

__all__ = [
    "RingSeries",
    "MarkerSeries",
    "TimeSeriesSampler",
    "bind_standard_metrics",
    "bind_cluster_metrics",
    "dump_timeseries_jsonl",
]


class RingSeries:
    """Fixed-capacity ``(time, value)`` series; oldest points drop first.

    ``labels`` optionally carries Prometheus-style labels (e.g.
    ``{"codec": "gzip"}``) and ``metric`` the label-free metric family
    name; the exposition sink uses both.
    """

    __slots__ = ("name", "capacity", "metric", "labels", "dropped",
                 "_ts", "_vs", "_start")

    def __init__(
        self,
        name: str,
        capacity: int = 4096,
        metric: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.name = name
        self.capacity = capacity
        self.metric = metric if metric is not None else name
        self.labels = dict(labels) if labels else {}
        self.dropped = 0
        self._ts: List[float] = []
        self._vs: List[float] = []
        self._start = 0  # ring head once full

    def append(self, t: float, v: float) -> None:
        if v != v:
            raise ValueError(f"NaN sample rejected on series {self.name!r}")
        if len(self._ts) < self.capacity:
            self._ts.append(t)
            self._vs.append(v)
        else:
            self._ts[self._start] = t
            self._vs[self._start] = v
            self._start = (self._start + 1) % self.capacity
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._ts)

    def points(self) -> Tuple[List[float], List[float]]:
        """``(times, values)`` in chronological order."""
        s = self._start
        if s == 0:
            return list(self._ts), list(self._vs)
        return self._ts[s:] + self._ts[:s], self._vs[s:] + self._vs[:s]

    def values(self) -> List[float]:
        return self.points()[1]

    def last(self) -> Optional[Tuple[float, float]]:
        if not self._ts:
            return None
        i = (self._start - 1) % len(self._ts)
        return self._ts[i], self._vs[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingSeries({self.name!r}, n={len(self)}, dropped={self.dropped})"


class MarkerSeries:
    """Fixed-capacity ``(time, label)`` event markers (band switches)."""

    __slots__ = ("name", "capacity", "dropped", "_events")

    def __init__(self, name: str, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.name = name
        self.capacity = capacity
        self.dropped = 0
        self._events: List[Tuple[float, str]] = []

    def add(self, t: float, label: str) -> None:
        if len(self._events) >= self.capacity:
            self._events.pop(0)
            self.dropped += 1
        self._events.append((t, label))

    def events(self) -> List[Tuple[float, str]]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class TimeSeriesSampler:
    """Periodic scraper of registered collectors into ring series.

    Lifecycle::

        sampler = TimeSeriesSampler(interval=0.25)
        sampler.attach(sim, device)   # registers the standard vocabulary
        sampler.start()               # daemon periodic event on sim
        ... run the replay ...
        print(render_dashboard(sampler))

    ``replay(..., sampler=sampler)`` does attach+start for you.
    Collectors are zero-argument callables returning a float (or
    ``None`` to skip the tick); ``register_multi`` handles families
    whose members appear over time (per-codec shares).
    """

    def __init__(self, interval: float = 0.25, capacity: int = 4096) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval!r}")
        self.interval = interval
        self.capacity = capacity
        self.series: Dict[str, RingSeries] = {}
        self.markers: Dict[str, MarkerSeries] = {}
        self.ticks = 0
        self.sim = None
        self.device = None
        self._collectors: List[Tuple[str, Callable[[], Optional[float]]]] = []
        self._multi: List[Tuple[str, Callable[[], Dict[str, float]]]] = []
        self._multi_label_keys: Dict[str, Optional[str]] = {}
        self._periodic = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def series_for(
        self,
        name: str,
        metric: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> RingSeries:
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = RingSeries(
                name, self.capacity, metric=metric, labels=labels
            )
        return s

    def register(
        self,
        name: str,
        fn: Callable[[], Optional[float]],
        metric: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Scrape ``fn()`` into series ``name`` every tick."""
        self.series_for(name, metric=metric, labels=labels)
        self._collectors.append((name, fn))

    def register_multi(
        self, prefix: str, fn: Callable[[], Dict[str, float]],
        label_key: Optional[str] = None,
    ) -> None:
        """Scrape a dict-valued family: ``fn() -> {member: value}``.

        Series are created lazily as members appear, named
        ``{prefix}.{member}``; with ``label_key`` the member lands in a
        Prometheus label instead of the metric name.
        """
        self._multi.append((prefix, fn))
        self._multi_label_keys[prefix] = label_key

    def mark(self, channel: str, label: str, t: Optional[float] = None) -> None:
        """Record an exact-time event marker (e.g. a band switch)."""
        m = self.markers.get(channel)
        if m is None:
            m = self.markers[channel] = MarkerSeries(channel)
        if t is None:
            t = self.sim.now if self.sim is not None else 0.0
        m.add(t, label)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, sim, device) -> None:
        """Bind to a simulator + device and register the standard vocabulary."""
        self.sim = sim
        self.device = device
        bind_standard_metrics(self, device)

    def start(self) -> None:
        """Begin periodic sampling (daemon events on the bound simulator)."""
        if self.sim is None:
            raise RuntimeError("attach(sim, device) before start()")
        if self._periodic is not None:
            return
        self._periodic = self.sim.every(self.interval, self.sample_now)

    def stop(self) -> None:
        if self._periodic is not None:
            self._periodic.cancel()
            self._periodic = None

    @property
    def running(self) -> bool:
        return self._periodic is not None

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_now(self) -> None:
        """Scrape every collector once at the current simulation time."""
        t = self.sim.now if self.sim is not None else 0.0
        for name, fn in self._collectors:
            v = fn()
            if v is None:
                continue
            self.series[name].append(t, float(v))
        for prefix, fn in self._multi:
            label_key = self._multi_label_keys.get(prefix)
            for member, v in fn().items():
                name = f"{prefix}.{member}"
                labels = {label_key: member} if label_key else None
                self.series_for(
                    name, metric=prefix, labels=labels
                ).append(t, float(v))
        self.ticks += 1

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self.series)

    def n_series(self) -> int:
        return len(self.series)


# ----------------------------------------------------------------------
# the standard metric vocabulary
# ----------------------------------------------------------------------
def bind_standard_metrics(sampler: TimeSeriesSampler, device) -> None:
    """Register the fixed scrape vocabulary for one EDC device stack.

    Series registered (≥ 10 on an EDC device): calculated/raw IOPS,
    active intensity band, per-codec write shares, compression ratio,
    per-class slot occupancy, CPU/flash queue depths, GC collections and
    moved bytes, write amplification and the flash busy fraction.
    Audited devices additionally export ``audit.decisions`` and a
    per-shadow ``audit.divergence_share`` family; devices with a bound
    :class:`~repro.recovery.DurableMetadataManager` export the
    ``recovery.*`` family (journal depth, checkpoint staleness,
    metadata write overhead, and the last recovery scan's page reads,
    replay length and recovered-entry counts).  Plans arming latent
    retention / read-disturb models export the ``latent.*`` family, and
    a bound :class:`~repro.flash.scrub.MediaScrubber` exports the
    ``scrub.*`` family (scan/verify/repair/retire counters).
    """
    sim = device.sim
    monitor = device.monitor
    backend = device.backend

    sampler.register(
        "monitor.calculated_iops",
        lambda: monitor.calculated_iops(sim.now),
    )
    sampler.register("monitor.raw_iops", lambda: monitor.raw_iops(sim.now))

    ladder = device.policy.ladder
    if ladder is not None:
        sampler.register(
            "policy.band",
            lambda: float(ladder.band_index(monitor.calculated_iops(sim.now))),
        )
        # Exact band-switch markers via the ladder's selection event.
        state = {"band": None}

        def _mark_band_switch(band_idx: int, iops: float) -> None:
            last = state["band"]
            if last is not None and band_idx != last:
                sampler.mark("band_switch", f"{last}->{band_idx}", t=sim.now)
            state["band"] = band_idx

        ladder.events.subscribe("select", _mark_band_switch)

    sampler.register_multi(
        "codec.write_share", device.stats.codec_shares, label_key="codec"
    )
    sampler.register(
        "compression.ratio", lambda: device.stats.compression_ratio
    )

    def _occupancy() -> Dict[str, float]:
        return {
            f"{int(round(frac * 100))}pct": share
            for frac, share in device.allocator.occupancy().items()
        }

    sampler.register_multi("alloc.slot_share", _occupancy, label_key="cls")
    sampler.register(
        "alloc.live_slots", lambda: float(device.allocator.live_slots)
    )

    sampler.register("queue.depth.cpu", lambda: float(device.cpu.depth))

    flash_queues = queues_of(backend)
    if flash_queues:
        sampler.register(
            "queue.depth.flash",
            lambda: float(sum(q.depth for q in flash_queues)),
        )

    ftls = ftls_of(backend)
    if ftls:
        sampler.register(
            "gc.collections",
            lambda: float(sum(f.stats.gc_runs for f in ftls)),
        )
        sampler.register(
            "gc.moved_bytes",
            lambda: float(sum(f.stats.relocated_bytes for f in ftls)),
        )
        sampler.register(
            "flash.write_amplification", lambda: write_amplification(ftls)
        )

    if flash_queues:
        busy_state = {"t": sim.now,
                      "busy": sum(q.stats.busy_time for q in flash_queues)}

        def _busy_fraction() -> Optional[float]:
            now = sim.now
            busy = sum(q.stats.busy_time for q in flash_queues)
            dt = now - busy_state["t"]
            db = busy - busy_state["busy"]
            busy_state["t"] = now
            busy_state["busy"] = busy
            if dt <= 0:
                return None
            return min(1.0, db / (dt * len(flash_queues)))

        sampler.register("flash.busy_fraction", _busy_fraction)

    # Fault/recovery vocabulary — only present on fault-injected runs
    # (a FaultPlan armed an injector on the SSDs), so baseline scrapes
    # and their exposition output are unchanged.  Totals run over every
    # SSD that has served, spares a rebuild installed included.
    def _injectors() -> List:
        return [s.injector for s in ssds_served(backend)
                if s.injector is not None]

    def _latent_models() -> List:
        return [s.latent for s in ssds_served(backend)
                if s.latent is not None]

    if _injectors():
        from repro.faults.plan import FaultStats

        for fname in FaultStats.FIELDS:
            sampler.register(
                f"faults.{fname}",
                (lambda n=fname: float(
                    sum(getattr(i.stats, n) for i in _injectors())
                )),
                metric="faults",
                labels={"kind": fname},
            )
        sampler.register(
            "edc.codec_fallbacks",
            lambda: float(device.stats.codec_fallbacks),
        )
        sampler.register(
            "edc.unrecovered_reads",
            lambda: float(device.unrecovered_reads),
        )
        sampler.register(
            "edc.unrecovered_writes",
            lambda: float(device.unrecovered_writes),
        )
        if isinstance(backend, RAIS5):
            astats = backend.stats
            sampler.register(
                "array.degraded", lambda: 1.0 if backend.degraded else 0.0
            )
            sampler.register(
                "array.degraded_reads", lambda: float(astats.degraded_reads)
            )
            sampler.register(
                "array.degraded_writes", lambda: float(astats.degraded_writes)
            )
            sampler.register(
                "array.rebuilt_rows", lambda: float(astats.rebuilt_rows)
            )
            sampler.register(
                "array.member_failures", lambda: float(astats.member_failures)
            )
            sampler.register(
                "array.unrecovered",
                lambda: float(astats.unrecovered_reads + astats.unrecovered_writes),
            )

    # Latent-error / scrub vocabulary — only present when the fault
    # plan arms retention/read-disturb models on the SSDs or a
    # MediaScrubber is bound to the device, so baseline scrapes and
    # their exposition output are unchanged.
    if _latent_models():
        from repro.faults.latent import LatentStats

        for fname in LatentStats.FIELDS:
            sampler.register(
                f"latent.{fname}",
                (lambda n=fname: float(
                    sum(getattr(m.stats, n) for m in _latent_models())
                )),
                metric="latent",
                labels={"kind": fname},
            )
        sampler.register(
            "latent.corrupt_extents_now",
            lambda: float(sum(m.corrupt_count for m in _latent_models())),
        )
        sampler.register(
            "edc.corrupt_reads", lambda: float(device.corrupt_reads)
        )

    observers = device.observers
    scrubber = observers.get("scrubber")
    if scrubber is not None:
        from repro.flash.scrub import ScrubStats

        for fname in ScrubStats.FIELDS:
            sampler.register(
                f"scrub.{fname}",
                (lambda n=fname: float(getattr(scrubber.stats, n))),
                metric="scrub",
                labels={"kind": fname},
            )

    # Recovery vocabulary — only present when a DurableMetadataManager
    # is bound (crash-consistency runs), so baseline scrapes and their
    # exposition output are unchanged.
    recovery = device.recovery
    if recovery is not None:
        sampler.register(
            "recovery.journal_pending_records",
            lambda: float(recovery.journal.pending_records),
        )
        sampler.register(
            "recovery.journal_durable_records",
            lambda: float(recovery.journal.durable_records),
        )
        sampler.register(
            "recovery.checkpoint_staleness_s",
            lambda: recovery.checkpoint_staleness_s,
        )
        sampler.register(
            "recovery.meta_write_bytes",
            lambda: float(recovery.stats.meta_write_bytes),
        )
        sampler.register(
            "recovery.meta_device_seconds",
            lambda: recovery.stats.meta_device_seconds,
        )
        sampler.register(
            "recovery.live_extents",
            lambda: float(len(recovery.live_records)),
        )

        def _last_recovery(name: str) -> Optional[float]:
            rep = recovery.last_recovery
            if rep is None:
                return None
            return float(getattr(rep, name))

        for rname in ("scan_pages_read", "journal_replay_len",
                      "oob_only_entries", "recovered_entries"):
            sampler.register(
                f"recovery.{rname}",
                (lambda n=rname: _last_recovery(n)),
            )

    # Trace-accounting vocabulary — only present on traced devices, so
    # baseline scrapes and their exposition output are unchanged.
    # spans_dropped makes the tracer's retention cap visible: a capped
    # trace can no longer masquerade as a complete one.
    telemetry = observers.get("telemetry")
    if telemetry is not None:
        tracer = telemetry.tracer
        sampler.register(
            "trace.spans_dropped", lambda: float(tracer.dropped)
        )
        sampler.register(
            "trace.retained_spans", lambda: float(len(tracer.spans))
        )

    # Decision-audit vocabulary — only present on audited runs, so
    # baseline scrapes and their exposition output are unchanged.
    auditor = observers.get("auditor")
    if auditor is not None:
        sampler.register(
            "audit.decisions", lambda: float(auditor.n_decisions)
        )
        sampler.register_multi(
            "audit.divergence_share",
            auditor.divergence_shares,
            label_key="shadow",
        )

    # Device-health vocabulary — only present when a DeviceHealth is
    # bound (``--health`` runs), so baseline scrapes and their
    # exposition output are unchanged.  A SMART snapshot and a space
    # waterfall each gather every FTL's and the allocator's counters,
    # so one of each per tick is computed lazily and shared across the
    # family's collectors.
    health = observers.get("health")
    if health is not None:
        _hcache: Dict[str, object] = {"t": None, "smart": None, "wf": None}

        def _smart():
            now = sim.now
            if _hcache["t"] != now:
                _hcache["t"] = now
                _hcache["smart"] = health.smart(observed_seconds=now)
                _hcache["wf"] = health.waterfall()
            return _hcache["smart"]

        def _wf():
            _smart()
            return _hcache["wf"]

        for sname, getter in (
            ("wear_p50", lambda s: s.wear_p50),
            ("wear_p95", lambda s: s.wear_p95),
            ("wear_max", lambda s: float(s.wear_max)),
            ("total_erases", lambda s: float(s.total_erases)),
            ("spare_blocks", lambda s: float(s.spare_blocks)),
            ("retired_blocks", lambda s: float(s.retired_blocks)),
            ("utilization", lambda s: s.utilization),
            ("write_amplification", lambda s: s.write_amplification),
            ("gc_efficiency", lambda s: s.gc_efficiency),
            ("wear_fraction", lambda s: s.wear_fraction),
        ):
            sampler.register(
                f"smart.{sname}", (lambda g=getter: g(_smart()))
            )
        sampler.register_multi(
            "smart.wa_bytes",
            lambda: {k: float(v) for k, v in _smart().wa_split().items()},
            label_key="source",
        )

        for wname, getter in (
            ("logical_bytes", lambda w: float(w.logical_bytes)),
            ("payload_bytes", lambda w: float(w.payload_bytes)),
            ("slack_bytes", lambda w: float(w.slack_bytes)),
            ("live_slot_bytes", lambda w: float(w.live_slot_bytes)),
            ("free_slot_bytes", lambda w: float(w.free_slot_bytes)),
            ("retired_bytes", lambda w: float(w.retired_bytes)),
            ("physical_bytes", lambda w: float(w.effective_physical_bytes)),
            ("realized_ratio", lambda w: w.realized_ratio),
        ):
            sampler.register(
                f"space.{wname}", (lambda g=getter: g(_wf()))
            )
        sampler.register_multi(
            "space.slack_by_class",
            lambda: {
                f"{int(round(frac * 100))}pct": float(v)
                for frac, v in _wf().slack_by_class.items()
            },
            label_key="cls",
        )

        heat = health.heat
        sampler.register(
            "heat.regions",
            lambda: float(len(set(heat._write) | set(heat._read))),
        )
        sampler.register("heat.touches", lambda: float(heat.touches))
        sampler.register_multi(
            "heat.write",
            lambda: {
                str(r): h for r, h in heat.hottest(sim.now, n=8, op="W")
            },
            label_key="region",
        )
        sampler.register_multi(
            "heat.read",
            lambda: {
                str(r): h for r, h in heat.hottest(sim.now, n=8, op="R")
            },
            label_key="region",
        )
        sampler.register(
            "gc.episodes", lambda: float(health.episodes_total)
        )


def bind_cluster_metrics(sampler: TimeSeriesSampler, fleet) -> None:
    """Register the ``cluster.*`` fleet vocabulary for one cluster run.

    ``fleet`` is a :class:`~repro.cluster.fleet.ClusterFleet`.  Binds
    the sampler to the fleet's simulator (no single device: the fleet
    is the subject) and registers per-shard depth/occupancy/ratio
    families (``shard`` label), per-tenant backlog/p95/SLO-violation
    families (``tenant`` label), and scalar fleet series — admission
    backlog, physical imbalance, active migrations and cumulative
    migration bytes.  On a traced fleet (one built with a
    :class:`~repro.telemetry.disttrace.DistTracer`) the ``trace.*``
    accounting family rides along.  Call
    :meth:`TimeSeriesSampler.start` afterwards.
    """
    sampler.sim = fleet.sim
    cluster = fleet.cluster
    devices = dict(fleet.devices)
    tracing = fleet.tracing
    if tracing is not None:
        tracer = tracing.tracer
        sampler.register(
            "trace.spans_dropped", lambda: float(tracer.dropped)
        )
        sampler.register(
            "trace.retained_spans", lambda: float(len(tracer.spans))
        )
        sampler.register(
            "trace.open_spans", lambda: float(tracer.open_spans)
        )
        sampler.register(
            "trace.open_requests", lambda: float(tracing.open_traces())
        )

    sampler.register_multi(
        "cluster.shard_depth",
        lambda: {n: float(d.outstanding) for n, d in devices.items()},
        label_key="shard",
    )
    sampler.register_multi(
        "cluster.shard_physical_bytes",
        lambda: {
            n: float(d.allocator.physical_bytes) for n, d in devices.items()
        },
        label_key="shard",
    )
    sampler.register_multi(
        "cluster.shard_ratio",
        lambda: {n: d.stats.compression_ratio for n, d in devices.items()},
        label_key="shard",
    )
    # A fleet with redundancy or a fault plan exports the fault-tolerance
    # vocabulary (and its internal rebuild tenant); a plain factor-1
    # fleet's scrape carries neither.
    cfg = fleet.config
    replicated = cfg.replication_factor > 1 or cfg.fault_plan is not None
    tenants = {
        n: st for n, st in cluster.scheduler.tenants.items()
        if replicated or not st.spec.internal
    }
    sampler.register_multi(
        "cluster.tenant_backlog",
        lambda: {n: float(len(st.backlog)) for n, st in tenants.items()},
        label_key="tenant",
    )
    sampler.register_multi(
        "cluster.tenant_p95",
        lambda: {
            n: st.latency.percentile(95)
            for n, st in tenants.items() if st.latency.count
        },
        label_key="tenant",
    )
    sampler.register_multi(
        "cluster.tenant_slo_violations",
        lambda: {
            n: float(st.stats.slo_violations) for n, st in tenants.items()
        },
        label_key="tenant",
    )
    sampler.register(
        "cluster.backlog", lambda: float(cluster.scheduler.backlog)
    )
    sampler.register("cluster.imbalance", fleet.balancer.imbalance)
    sampler.register(
        "cluster.migrations_active",
        lambda: float(len(fleet.orchestrator.active)),
    )
    sampler.register(
        "cluster.migration_bytes",
        lambda: float(fleet.orchestrator.migration_bytes()),
    )
    sampler.register_multi(
        "cluster.unrecovered",
        lambda: {
            n: float(st.stats.unrecovered)
            for n, st in tenants.items() if not st.spec.internal
        },
        label_key="tenant",
    )

    if replicated:
        replication = fleet.replication
        rstats = replication.stats
        sampler.register(
            "cluster.replica_writes", lambda: float(rstats.replica_writes)
        )
        sampler.register(
            "cluster.retries", lambda: float(rstats.retries)
        )
        sampler.register(
            "cluster.failovers", lambda: float(rstats.failovers)
        )
        sampler.register(
            "cluster.hedged_reads", lambda: float(rstats.hedged_reads)
        )
        sampler.register(
            "cluster.quorum_failures",
            lambda: float(rstats.quorum_failures),
        )
        sampler.register(
            "cluster.rebuilds_active",
            lambda: float(len(replication.rebuilding)),
        )
        sampler.register(
            "cluster.rebuild_bytes", lambda: float(rstats.rebuild_bytes)
        )
    health = fleet.health
    if health is not None:
        sampler.register(
            "cluster.shards_alive", lambda: float(health.alive_count())
        )
        sampler.register_multi(
            "cluster.shard_health",
            lambda: {
                n: {"alive": 1.0, "suspect": 0.5, "dead": 0.0}[s]
                for n, s in health.states().items()
            },
            label_key="shard",
        )


# ----------------------------------------------------------------------
# JSONL sink
# ----------------------------------------------------------------------
def dump_timeseries_jsonl(sampler: TimeSeriesSampler, fp: TextIO) -> int:
    """Write every series (one JSON object per line) plus marker lines.

    Line shapes::

        {"series": name, "metric": ..., "labels": {...},
         "t": [...], "v": [...], "dropped": n}
        {"markers": channel, "events": [[t, label], ...], "dropped": n}

    Returns the number of lines written.
    """
    n = 0
    for name in sorted(sampler.series):
        s = sampler.series[name]
        ts, vs = s.points()
        fp.write(json.dumps({
            "series": name,
            "metric": s.metric,
            "labels": s.labels,
            "t": ts,
            "v": vs,
            "dropped": s.dropped,
        }, sort_keys=True))
        fp.write("\n")
        n += 1
    for channel in sorted(sampler.markers):
        m = sampler.markers[channel]
        fp.write(json.dumps({
            "markers": channel,
            "events": [[t, label] for t, label in m.events()],
            "dropped": m.dropped,
        }, sort_keys=True))
        fp.write("\n")
        n += 1
    return n
