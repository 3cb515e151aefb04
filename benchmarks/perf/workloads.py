"""The four workloads, each chosen so that one group of layers does most
of the work there and close to none in another (see ``README.md`` for
the profile shares behind each choice).

Everything here runs inside a worker process and drives the program
through its public API only: ``replay(on_built=...)``, ``build_cluster``,
``ClusterReplayer`` and public attributes.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.cluster import tenant_roster
from repro.bench.experiments import ReplayConfig, replay
from repro.cluster import ClusterReplayConfig, ClusterReplayer, build_cluster
from repro.flash.introspect import SpaceAccountingError
from repro.sim.engine import Simulator
from repro.telemetry import DecisionAuditor, DeviceHealth, Telemetry, TimeSeriesSampler
from repro.traces.model import WRITE, Trace
from repro.traces.multitenant import make_tenant_streams
from repro.traces.synthetic import SyntheticTraceGenerator
from repro.traces.workloads import WORKLOADS, make_workload

from timing import K, stamp_times

#: requests per input at scale 1.0
SIZES = {
    "paper4-edc": {"Fin1": 600, "Fin2": 400, "Usr_0": 160, "Prxy_0": 840},
    "native-gc": {"Prxy_0": 26_000},
    "read-observed": {"Fin2": 13_000},
    "fleet-rf2": {"per_tenant": 1_900},
}
N_TENANTS = 8
#: The paper replays fixed published traces over generated data, and so do
#: the two workloads whose cost follows the arrival pattern: their traces
#: are the repository's canonical ones and ``--seed`` seeds the content
#: generator.  (A few thousand requests of an ON/OFF source hold one or two
#: bursts; across trace seeds the bytes EDC routes to the slow codec vary
#: by a quarter, and the sampler ticks of ``read-observed`` by a half.)
CANONICAL_TRACE_SEED = 10


class Recorder:
    """Clock readings of one run: set-up phases, then stamped segments."""

    def __init__(
        self,
        stamps: int,
        clock: Callable[[], float] = time.perf_counter,
        on_region: Optional[Callable[[bool], None]] = None,
    ) -> None:
        self.stamps = stamps
        self.clock = clock
        self.on_region = on_region
        self.setup: List[Tuple[str, float]] = []
        self.segments: List[float] = []
        self._mark = clock()
        self._timed = False

    def start(self) -> None:
        """Open a set-up region (what ran since the last one is not timed)."""
        self._mark = self.clock()

    def phase(self, name: str) -> None:
        now = self.clock()
        self.setup.append((name, now - self._mark))
        self._mark = now

    def stamp(self) -> None:
        """A stamp event fired: the first opens the timed region."""
        if not self._timed:
            self.phase("schedule")
            self._timed = True
            if self.on_region is not None:
                self.on_region(True)
            return
        now = self.clock()
        self.segments.append(now - self._mark)
        self._mark = now

    def end(self) -> None:
        """The replay returned: close the last segment."""
        if self._timed:
            now = self.clock()
            self.segments.append(now - self._mark)
            self._timed = False
            if self.on_region is not None:
                self.on_region(False)

    def schedule_stamps(self, sim, request_times, k: Optional[int] = None) -> None:
        """Daemon stamp events: they change nothing but ``sim.dispatched``."""
        if not self.stamps:
            return
        for t in stamp_times(request_times, k if k is not None else self.stamps):
            sim.schedule_at(t, self.stamp, daemon=True)


@dataclasses.dataclass
class Outcome:
    """What one run of a workload produced, for checks and metrics."""

    attempted: int = 0
    completed: int = 0
    write_bytes_in: int = 0
    writes_in: int = 0
    latencies: List[np.ndarray] = dataclasses.field(default_factory=list)
    flash_bytes: int = 0
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: operations that failed, by reason (all must be zero)
    failures: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: named output checks: (ok, detail)
    checks: Dict[str, Tuple[bool, str]] = dataclasses.field(default_factory=dict)

    def bump(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def fail(self, reason: str, n: int) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + n

    def note_input(self, trace: Trace) -> None:
        self.attempted += len(trace)
        for req in trace:
            if req.op == WRITE:
                self.writes_in += 1
                self.write_bytes_in += req.nbytes

    def note_device(self, device, ssd) -> None:
        """Exact counts read from one device stack's public attributes."""
        st = device.stats
        self.bump("sdgen.memo_hits", device.content.cache_hits)
        self.bump("sdgen.memo_misses", device.content.cache_misses)
        self.bump("compression.kept", st.compressed_writes)
        self.bump("compression.failed_75pct", st.failed_75pct)
        self.bump("core.submits", device.write_latency.count + device.read_latency.count)
        self.bump("core.writes", st.writes)
        self.bump("core.reads", device.read_latency.count)
        self.bump("core.merged_runs", st.merged_runs)
        self.bump("core.skipped_intensity", st.skipped_intensity)
        self.bump("core.skipped_incompressible", st.skipped_incompressible)
        ftl = ssd.ftl
        self.bump("flash.ftl_writes", ftl.stats.host_writes)
        self.bump("flash.erases", ftl.collector.stats.erases)
        self.bump("flash.gc_relocated_bytes", ftl.stats.relocated_bytes)
        self.bump("flash.host_bytes", ftl.stats.host_bytes)
        self.bump("flash.gc_stall_sim_s", ssd.stats.gc_stall_time)
        self.bump("flash.mapping_entries", len(device.mapping))
        self.bump("flash.alloc_calls", device.allocator.stats.allocations)
        self.flash_bytes += ftl.stats.host_bytes + ftl.stats.relocated_bytes
        self.fail("outstanding", device.outstanding)
        self.fail("unrecovered_reads", device.unrecovered_reads)
        self.fail("unrecovered_writes", device.unrecovered_writes)
        self.fail("corrupt_reads", device.corrupt_reads)

    def note_sim(self, sim: Simulator) -> None:
        self.bump("sim.events_dispatched", sim.dispatched)


def _single(
    rec: Recorder,
    out: Outcome,
    make_trace: Callable[[], Trace],
    scheme: str,
    cfg: Optional[ReplayConfig] = None,
    stamps: Optional[int] = None,
    **observers,
) -> None:
    """One ``replay()`` with stamps: generate, build, schedule, timed run."""
    rec.start()
    trace = make_trace()
    rec.phase("generate")
    built = {}

    def on_built(sim, device, backend, devices):
        rec.phase("build")
        built.update(sim=sim, device=device, ssd=backend)
        rec.schedule_stamps(sim, [r.time for r in trace], stamps)

    replay(trace, scheme, cfg, on_built=on_built, **observers)
    rec.end()
    device = built["device"]
    out.note_input(trace)
    out.note_device(device, built["ssd"])
    out.note_sim(built["sim"])
    out.completed += device.write_latency.count + device.read_latency.count
    out.latencies += [device.write_latency.samples(), device.read_latency.samples()]


def _scaled(n: int, scale: float) -> int:
    return max(K, int(n * scale))


def paper4_edc(rec: Recorder, seed: int, scale: float) -> Outcome:
    """Fin1, Fin2, Usr_0, Prxy_0 through EDC; fresh device and store each."""
    out = Outcome()
    sizes = SIZES["paper4-edc"]
    per_trace = rec.stamps // len(sizes) if rec.stamps else 0
    for name, n in sizes.items():
        _single(
            rec, out,
            lambda: make_workload(
                name, max_requests=_scaled(n, scale), seed=CANONICAL_TRACE_SEED),
            "EDC", ReplayConfig(content_seed=seed), stamps=per_trace,
        )
    return out


def native_gc(rec: Recorder, seed: int, scale: float) -> Outcome:
    """Uncompressed overwrites folded onto a 16 MB SSD: the GC workload."""
    out = Outcome()
    params = dataclasses.replace(WORKLOADS["Prxy_0"], address_space=64 << 20)
    n = _scaled(SIZES["native-gc"]["Prxy_0"], scale)
    _single(
        rec, out,
        lambda: SyntheticTraceGenerator(params, seed=seed).generate(max_requests=n),
        "Native", ReplayConfig(capacity_mb=16, fold_fraction=0.6),
    )
    return out


def read_observed(rec: Recorder, seed: int, scale: float) -> Outcome:
    """Read-heavy Fin2 under the C codec with every observer attached."""
    out = Outcome()
    telemetry = Telemetry(Simulator())
    sampler = TimeSeriesSampler(interval=0.25)
    auditor = DecisionAuditor()
    health = DeviceHealth()
    n = _scaled(SIZES["read-observed"]["Fin2"], scale)
    _single(
        rec, out,
        lambda: make_workload("Fin2", max_requests=n, seed=CANONICAL_TRACE_SEED),
        "Gzip", ReplayConfig(content_seed=seed), telemetry=telemetry, sampler=sampler, auditor=auditor, health=health,
    )
    try:
        health.waterfall().verify()
        out.checks["space_waterfall"] = (True, "conservation identities hold")
    except SpaceAccountingError as exc:
        out.checks["space_waterfall"] = (False, str(exc))
    out.bump("telemetry.sampler_ticks", sampler.ticks)
    out.bump("telemetry.spans_recorded", len(telemetry.tracer.spans) + telemetry.tracer.dropped)
    out.bump("telemetry.audit_decisions", auditor.n_decisions)
    out.bump("telemetry.gc_episodes", health.episodes_total)
    return out


def fleet_rf2(rec: Recorder, seed: int, scale: float) -> Outcome:
    """Eight tenants on four Native shards, two replicas, majority quorum."""
    out = Outcome()
    rec.start()
    specs = tenant_roster(N_TENANTS)
    streams = make_tenant_streams(
        [t.name for t in specs],
        max_requests=_scaled(SIZES["fleet-rf2"]["per_tenant"], scale),
        seed=seed,
    )
    rec.phase("generate")
    fleet = build_cluster(specs, ClusterReplayConfig(
        n_shards=4, capacity_mb=128, namespace_bytes=16 << 20, scheme="Native",
        replication_factor=2, quorum="majority",
    ))
    rec.phase("build")
    # stamps first, so stamp 0 is the first event dispatched
    rec.schedule_stamps(
        fleet.sim, sorted(r.time for s in streams for r in s.trace))
    replayer = ClusterReplayer(fleet)
    replayer.schedule_interleaved([(s.tenant, s.trace) for s in streams])
    outcome = replayer.run()
    rec.end()

    for s in streams:
        out.note_input(s.trace)
    for name, device in fleet.devices.items():
        out.note_device(device, fleet.backends[name])
    out.note_sim(fleet.sim)
    cluster = fleet.cluster
    for st in cluster.scheduler.tenants.values():
        if st.spec.internal:
            continue
        out.completed += st.stats.completed
        out.latencies.append(st.latency.samples())
        out.bump("cluster.requests_routed", st.stats.submitted)
        out.bump("cluster.queued", st.stats.queued)
        out.fail("unrecovered_requests", st.stats.unrecovered)
    rep = outcome.replication
    out.bump("cluster.parts", cluster.stats.issued_writes + cluster.stats.issued_reads)
    out.bump("cluster.replica_writes", rep.replica_writes)
    out.bump("cluster.retries", rep.retries)
    out.bump("cluster.failovers", rep.failovers)
    out.fail("unrecovered_parts", cluster.stats.unrecovered_parts)
    out.fail("lost_writes", len(outcome.lost_writes))
    audit = outcome.durability
    out.fail("lost_blocks", len(audit.lost))
    out.fail("corrupt_blocks", len(audit.corrupt))
    out.checks["durability"] = (
        audit.verdict == "RECOVERED",
        f"{audit.verdict}, {audit.checked_blocks} acked blocks checked",
    )
    return out


WORKLOAD_FUNCS = {
    "paper4-edc": paper4_edc,
    "native-gc": native_gc,
    "read-observed": read_observed,
    "fleet-rf2": fleet_rf2,
}
