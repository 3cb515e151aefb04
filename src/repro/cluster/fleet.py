"""Fleet assembly and cluster replay harness.

:func:`build_cluster` stands up N independent ``EDCBlockDevice`` +
``SimulatedSSD`` pairs on **one** simulator (one virtual clock for the
whole fleet) and wires the cluster tier over them: consistent-hash
routing, QoS admission, capacity watching, and the migration
orchestrator.  :class:`ClusterReplayer` then drives per-tenant traces
through the front door and summarises the run as a
:class:`ClusterOutcome`.

Degenerate-fleet guarantee: a 1-shard / 1-unthrottled-tenant cluster
adds *zero* simulation events and *zero* address translation beyond the
single-device replay's own fold, so its decision stream and
simulated-time metrics are bit-identical to
:func:`repro.bench.experiments.replay` over the same trace — the
cluster tier is pure plumbing until you give it something to arbitrate.
The tier-1 test suite pins this equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.capacity import CapacityBalancer, ShardCapacity
from repro.cluster.health import HealthMonitor
from repro.cluster.migration import MigrationOrchestrator, MigrationStats
from repro.cluster.replication import (
    DurabilityReport,
    ReplicationConfig,
    ReplicationManager,
    ReplicationStats,
)
from repro.cluster.routing import ClusterDistributer, ClusterStats
from repro.cluster.tenants import TenantSpec
from repro.faults.plan import FaultPlan, FaultStats
from repro.bench.experiments import ReplayConfig, build_stack
from repro.energy.model import EnergyModel, EnergyReport
from repro.flash.introspect import write_amplification
from repro.flash.ssd import SimulatedSSD
from repro.sim.engine import Simulator
from repro.traces.model import Trace

__all__ = [
    "ClusterReplayConfig", "ClusterFleet", "TenantReport", "ShardReport",
    "ClusterOutcome", "ClusterReplayer", "build_cluster",
]


@dataclass(frozen=True)
class ClusterReplayConfig:
    """Environment for one cluster run.

    Every shard is the single-SSD stack of a default
    :class:`~repro.bench.experiments.ReplayConfig` of ``capacity_mb``
    (:meth:`shard_env`), so the degenerate 1-shard fleet reproduces the
    single-device replay exactly: same geometry, same content population
    (per shard), same namespace fold (of one shard's logical bytes).
    """

    n_shards: int = 4
    scheme: str = "EDC"
    capacity_mb: int = 128
    #: LBA range granularity of ring placement and migration
    range_blocks: int = 256
    #: per-tenant namespace size; ``None`` derives the single-device fold
    namespace_bytes: Optional[int] = None
    #: :class:`~repro.faults.FaultPlan` armed on every shard (scheduled
    #: ``DeviceFailure`` names must match ``shard<i>``); ``None`` keeps
    #: the fleet fault-free and injector-free
    fault_plan: Optional[FaultPlan] = None
    #: replicas per range (1 = no redundancy)
    replication_factor: int = 1
    #: write-ack rule: ``one`` | ``majority`` | ``all``
    quorum: str = "majority"
    hedge_reads: bool = False

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {self.n_shards!r}")
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1: {self.replication_factor!r}"
            )
        if self.quorum not in ("one", "majority", "all"):
            raise ValueError(
                f"quorum must be 'one', 'majority' or 'all': {self.quorum!r}"
            )

    def shard_env(self) -> ReplayConfig:
        """The stack environment every shard is built from."""
        return ReplayConfig(backend="ssd", capacity_mb=self.capacity_mb)

    def resolved_namespace_bytes(self) -> int:
        if self.namespace_bytes is not None:
            return self.namespace_bytes
        env = self.shard_env()
        return env.fold_bytes(env.device_config.block_size)


@dataclass
class ClusterFleet:
    """Everything :func:`build_cluster` stands up, by layer."""

    sim: Simulator
    cluster: ClusterDistributer
    orchestrator: MigrationOrchestrator
    balancer: CapacityBalancer
    devices: Dict[str, object]
    backends: Dict[str, SimulatedSSD]
    config: ClusterReplayConfig
    #: the cluster's :class:`~repro.cluster.replication.ReplicationManager`
    #: (placement table, part issue, rebuild, durability audit)
    replication: ReplicationManager
    #: cluster-wide :class:`~repro.telemetry.disttrace.DistTracer`, or
    #: ``None`` when the fleet was built without tracing
    tracing: Optional[object] = None
    #: :class:`~repro.cluster.health.HealthMonitor` (fault plans only)
    health: Optional[HealthMonitor] = None
    #: per-shard fault injectors, in shard order (fault plans only)
    injectors: List[object] = field(default_factory=list)

    def flush(self) -> None:
        """Flush every shard's Sequentiality Detector tail."""
        for dev in self.devices.values():
            dev.flush()


def build_cluster(
    tenants: Sequence[TenantSpec],
    cfg: Optional[ClusterReplayConfig] = None,
    sim: Optional[Simulator] = None,
    tracing: bool = False,
) -> ClusterFleet:
    """Stand up the shard fleet and its cluster tier on one clock.

    ``tracing=True`` attaches a fleet-wide
    :class:`~repro.telemetry.disttrace.DistTracer`: one shared span
    tracer across every shard's :class:`~repro.telemetry.Telemetry`
    plus the cluster tier, so device spans nest under cluster request
    spans.  Tracing is observational only — the simulated outcome is
    bit-identical with it on or off.
    """
    cfg = cfg if cfg is not None else ClusterReplayConfig()
    sim = sim if sim is not None else Simulator()
    dist = None
    if tracing:
        from repro.telemetry.disttrace import DistTracer
        from repro.telemetry.probes import Telemetry

        dist = DistTracer(sim)
    env = cfg.shard_env()
    plan = cfg.fault_plan
    devices: Dict[str, object] = {}
    backends: Dict[str, SimulatedSSD] = {}
    for i in range(cfg.n_shards):
        name = f"shard{i}"
        stack = build_stack(sim, env, cfg.scheme, name=name, fault_plan=plan)
        devices[name] = stack.device
        backends[name] = stack.backend
        if dist is not None:
            telemetry = Telemetry(sim, tracer=dist.tracer)
            telemetry.parent_for = dist.take_parent
            telemetry.bind_device(stack.device)
    cluster = ClusterDistributer(
        sim, devices, tenants,
        namespace_bytes=cfg.resolved_namespace_bytes(),
        range_blocks=cfg.range_blocks,
        tracer=dist,
        replication=ReplicationConfig(
            factor=cfg.replication_factor,
            quorum=cfg.quorum,
            hedge_reads=cfg.hedge_reads,
        ),
    )
    orchestrator = MigrationOrchestrator(cluster)
    balancer = CapacityBalancer(cluster)
    if plan is not None:
        plan.schedule_failures(sim, backends.values())
    health = None
    if plan is not None:
        health = HealthMonitor(
            sim, devices, on_dead=cluster.replication.on_shard_dead
        )
        health.start()
    return ClusterFleet(
        sim=sim, cluster=cluster, orchestrator=orchestrator,
        balancer=balancer, devices=devices, backends=backends, config=cfg,
        tracing=dist, replication=cluster.replication, health=health,
        injectors=(
            [ssd.injector for ssd in backends.values()]
            if plan is not None else []
        ),
    )


@dataclass(frozen=True)
class TenantReport:
    """Per-tenant outcome of one cluster run."""

    name: str
    submitted: int
    completed: int
    queued: int
    max_backlog: int
    mean_latency: float
    p95_latency: float
    slo: Optional[float]
    slo_violations: int
    #: requests that exhausted every recovery path (quorum + retries)
    unrecovered: int = 0


@dataclass(frozen=True)
class ShardReport:
    """Per-shard outcome: capacity view plus device-level accounting."""

    capacity: ShardCapacity
    compression_ratio: float
    write_amplification: float
    device_busy_s: float
    #: SMART rollup of the shard's device (wear, spare/retired capacity,
    #: WA, GC efficiency, realised space ratio) — see
    #: :func:`repro.flash.introspect.smart_snapshot`
    smart: Optional[Dict[str, float]] = None


@dataclass(frozen=True)
class ClusterOutcome:
    """Summary of one completed cluster replay."""

    n_requests: int
    horizon: float
    tenants: Dict[str, TenantReport]
    shards: Dict[str, ShardReport]
    stats: ClusterStats
    migration: MigrationStats
    #: total migration traffic: chunk copies + dual-write duplicates
    migration_bytes: int
    #: fleet write amplification, migration traffic included
    fleet_wa: float
    energy: EnergyReport
    imbalance: float
    #: acked blocks no live replica maps (the audit's ``lost`` list);
    #: non-empty means data loss
    lost_writes: List[int]
    #: replication-tier accounting
    replication: ReplicationStats
    #: post-run acked-write durability audit
    durability: DurabilityReport
    #: shards the health monitor declared dead, sorted
    dead_shards: List[str] = field(default_factory=list)
    #: final health state per shard (empty without a fault plan)
    health_states: Dict[str, str] = field(default_factory=dict)
    #: aggregate injector accounting (``None`` without a fault plan)
    fault_stats: Optional[FaultStats] = None

    @property
    def total_unrecovered(self) -> int:
        return sum(t.unrecovered for t in self.tenants.values())


class ClusterReplayError(RuntimeError):
    """Raised when a cluster replay finishes in an inconsistent state."""


def _shard_smart(dev, horizon: float) -> Dict[str, float]:
    """Flat SMART rollup of one shard's device for the cluster outcome.

    Read-only over end-of-run state (the replay has already drained),
    so computing it can never perturb the run it describes.
    """
    from repro.flash.introspect import smart_snapshot, space_waterfall

    snap = smart_snapshot(dev, observed_seconds=max(horizon, 0.0))
    wf = space_waterfall(dev)
    return {
        "wear_max": float(snap.wear_max),
        "wear_p95": snap.wear_p95,
        "total_erases": float(snap.total_erases),
        "spare_blocks": float(snap.spare_blocks),
        "retired_blocks": float(snap.retired_blocks),
        "utilization": snap.utilization,
        "write_amplification": snap.write_amplification,
        "gc_collections": float(snap.gc_collections),
        "gc_efficiency": snap.gc_efficiency,
        "wear_fraction": snap.wear_fraction,
        "realized_ratio": wf.realized_ratio,
        "slack_bytes": float(wf.slack_bytes),
    }


class ClusterReplayer:
    """Drives per-tenant traces through the cluster front door."""

    def __init__(self, fleet: ClusterFleet) -> None:
        self.fleet = fleet
        self._scheduled = 0

    def schedule(self, tenant: str, trace: Trace) -> None:
        """Schedule every request of ``trace`` for ``tenant``.

        Requests carry tenant-local addresses; each is built as it
        arrives, already folded into the tenant's namespace
        (:meth:`~repro.cluster.routing.ClusterDistributer.globalize`'s
        fold, exactly the single-device replay's), and admitted.
        """
        cluster = self.fleet.cluster
        requests = trace.folded(  # tenant_offset fails fast on unknown tenants
            cluster.namespace_bytes, cluster.block_size, cluster.tenant_offset(tenant),
        )
        admit = cluster.admit
        self.fleet.sim.arrivals(requests, lambda g: admit(g, tenant), trace.times)
        self._scheduled += len(trace)

    def schedule_interleaved(
        self, streams: Sequence[Tuple[str, Trace]]
    ) -> None:
        for tenant, trace in streams:
            self.schedule(tenant, trace)

    def run(self) -> ClusterOutcome:
        """Run to completion (including SD tails) and summarise."""
        fleet = self.fleet
        sim, cluster = fleet.sim, fleet.cluster
        sim.run()
        fleet.flush()
        sim.run()
        leftover = cluster.outstanding + cluster.scheduler.backlog
        if leftover:
            raise ClusterReplayError(
                f"{leftover} of {self._scheduled} requests never completed"
            )
        for name, dev in fleet.devices.items():
            if dev.outstanding:
                raise ClusterReplayError(
                    f"shard {name} still has {dev.outstanding} requests"
                )
        return self._summarise(sim.now)

    def _summarise(self, horizon: float) -> ClusterOutcome:
        fleet = self.fleet
        cluster = fleet.cluster
        tenants: Dict[str, TenantReport] = {}
        for name, st in cluster.scheduler.tenants.items():
            if st.spec.internal:  # e.g. the rebuild tenant
                continue
            tenants[name] = TenantReport(
                name=name,
                submitted=st.stats.submitted,
                completed=st.stats.completed,
                queued=st.stats.queued,
                max_backlog=st.stats.max_backlog,
                mean_latency=st.latency.mean(),
                p95_latency=st.latency.percentile(95),
                slo=st.spec.slo,
                slo_violations=st.stats.slo_violations,
                unrecovered=st.stats.unrecovered,
            )
        snap = fleet.balancer.snapshot()
        shards: Dict[str, ShardReport] = {}
        busy: List[float] = []
        cpu_busy = 0.0
        logical_total = 0
        for name, dev in fleet.devices.items():
            ssd = fleet.backends[name]
            busy.append(ssd.queue.stats.busy_time)
            cpu_busy += dev.cpu.stats.busy_time
            logical_total += dev.stats.logical_bytes
            shards[name] = ShardReport(
                capacity=snap[name],
                compression_ratio=dev.stats.compression_ratio,
                write_amplification=write_amplification([ssd.ftl]),
                device_busy_s=ssd.queue.stats.busy_time,
                smart=_shard_smart(dev, horizon),
            )
        energy = EnergyModel().from_times(
            horizon_s=horizon,
            cpu_busy_s=min(cpu_busy, horizon),
            device_busy_s=busy,
            logical_bytes=logical_total,
        )
        durability = fleet.replication.audit_durability()
        return ClusterOutcome(
            n_requests=self._scheduled,
            horizon=horizon,
            tenants=tenants,
            shards=shards,
            stats=cluster.stats,
            migration=fleet.orchestrator.stats,
            migration_bytes=fleet.orchestrator.migration_bytes(),
            fleet_wa=write_amplification(
                [ssd.ftl for ssd in fleet.backends.values()]
            ),
            energy=energy,
            imbalance=fleet.balancer.imbalance(snap),
            lost_writes=durability.lost,
            replication=fleet.replication.stats,
            durability=durability,
            dead_shards=(
                fleet.health.dead_shards() if fleet.health is not None else []
            ),
            health_states=(
                fleet.health.states() if fleet.health is not None else {}
            ),
            fault_stats=(
                fleet.config.fault_plan.total_stats(fleet.injectors)
                if fleet.config.fault_plan is not None else None
            ),
        )
