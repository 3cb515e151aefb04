"""The cluster exhibit: a sharded multi-tenant fleet under live migration.

``python -m repro.bench cluster`` stands up an N-shard fleet serving
M tenants with mixed QoS contracts (cycled personalities: unlimited,
tight-SLO throttled, batch, weighted), drives interleaved per-tenant
traces through the cluster front door, forces one live range migration
mid-run, and prints the fleet report: per-tenant admission/SLO
accounting, per-shard occupancy and realised compression, migration
traffic, and the acked-write durability verdict.

The run grades at least **DEGRADED** (exit 1 from the CLI) when any
acked write is lost, when a started migration does not complete, or
when the SLO accounting is inconsistent — the same checks the CI
cluster smoke job gates on.  With ``--trace`` the fleet runs under distributed tracing
and every sampled request's critical path must sum to its end-to-end
latency (conservation violations fail the run); ``--alerts`` rides a
burn-rate alert engine on the metrics sampler.

``python -m repro.bench cluster --chaos plan.json`` is the
**fleet chaos harness**: the same exhibit under a
:class:`~repro.faults.FaultPlan` whose scheduled ``device_failures``
kill shards mid-run, with N-way replication (``--replication``)
standing between the failures and the tenants.  After the run every
acked write is audited against the surviving replicas
(:meth:`~repro.cluster.replication.ReplicationManager.audit_durability`)
and the verdict decides the exit code: ``RECOVERED`` (0) — redundancy
restored, every acked block readable byte-exact; ``DEGRADED`` (1) —
data intact but a range is still under-replicated; ``DATA-LOSS`` (2) —
an acked block has no surviving copy; ``CORRUPTION`` (3) — a surviving
copy failed the byte-exactness scrub.  Chaos runs skip the forced
migration kick so the failover path is exercised in isolation; every
other run — replicated or not — performs it.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Optional

from repro.bench import verdicts
from repro.bench.record import RunRecord
from repro.cluster import (
    ClusterReplayConfig,
    ClusterReplayer,
    Migration,
    TenantSpec,
    build_cluster,
)
from repro.faults.plan import FaultPlan
from repro.traces.multitenant import make_tenant_streams

__all__ = ["tenant_roster", "run_cluster", "render"]


def tenant_roster(n_tenants: int) -> List[TenantSpec]:
    """M tenants with cycled QoS personalities (deterministic)."""
    if n_tenants < 1:
        raise ValueError(f"n_tenants must be >= 1: {n_tenants!r}")
    specs: List[TenantSpec] = []
    for i in range(n_tenants):
        name = f"tenant{i}"
        kind = i % 4
        if kind == 0:    # interactive, unthrottled, tight SLO
            specs.append(TenantSpec(name, slo=0.010))
        elif kind == 1:  # throttled OLTP with a firm SLO
            specs.append(TenantSpec(name, rate_iops=500.0, slo=0.020))
        elif kind == 2:  # batch: heavily throttled, no SLO
            specs.append(TenantSpec(name, rate_iops=200.0, burst=16.0))
        else:            # premium: throttled but double-weight arbitration
            specs.append(
                TenantSpec(name, rate_iops=500.0, burst=64.0,
                           weight=2.0, slo=0.015)
            )
    return specs


def render(record: RunRecord) -> str:
    """The fleet report of a ``cluster`` record."""
    r, sec, scn = record.results, record.sections, record.scenario
    tenants, shards = sec["tenants"], sec["shards"]
    # The fault-tolerance lines belong to runs that asked for redundancy
    # or faults; a plain factor-1 report stays as short as it was.
    replicated = scn["replication_factor"] > 1 or scn["plan"] is not None
    lines: List[str] = []
    lines.append(
        f"cluster: {len(shards)} shards x {len(tenants)} tenants, "
        f"{r['n_requests']} requests, horizon {r['horizon']:.2f}s"
    )
    lines.append("")
    lines.append("tenant       workload  done   queued  p95 ms     SLO ms  viol")
    for name in sorted(tenants):
        t = tenants[name]
        slo = f"{t['slo'] * 1e3:7.1f}" if t["slo"] is not None else "      -"
        lines.append(
            f"{name:<12} {t['workload']:<9} "
            f"{t['completed']:<6} {t['queued']:<7} "
            f"{t['p95_latency'] * 1e3:8.3f} "
            f"{slo} {t['slo_violations']:5d}"
        )
    lines.append("")
    lines.append("shard    ranges  logical MB  physical MB  ratio  WA")
    for name in sorted(shards):
        s = shards[name]
        c = s["capacity"]
        lines.append(
            f"{name:<8} {c['ranges']:<7} {c['logical_bytes'] / 1e6:10.2f} "
            f"{c['physical_bytes'] / 1e6:11.2f} {c['ratio']:6.3f} "
            f"{s['write_amplification']:5.3f}"
        )
    lines.append("")
    lines.append(
        "shard    wear_max  erases  spare  retired  util%  "
        "GC eff  realized"
    )
    for name in sorted(shards):
        sm = shards[name]["smart"]
        lines.append(
            f"{name:<8} {int(sm['wear_max']):8d} "
            f"{int(sm['total_erases']):7d} "
            f"{int(sm['spare_blocks']):6d} "
            f"{int(sm['retired_blocks']):8d} "
            f"{sm['utilization'] * 100:6.1f} "
            f"{sm['gc_efficiency']:7.3f} "
            f"{sm['realized_ratio']:9.3f}"
        )
    lines.append("")
    m, e = sec["migration"], sec["energy"]
    lines.append(
        f"migrations: {m['completed']}/{m['started']} completed, "
        f"{m['copied_blocks']} blocks copied "
        f"({r['migration_bytes'] / 1e6:.2f} MB migration traffic, "
        f"{sec['stats']['dual_writes']} dual-writes), "
        f"{m['skipped_dirty_blocks']} dirty-skipped"
    )
    joules = e["cpu_joules"] + e["device_active_joules"] + e["device_idle_joules"]
    lines.append(
        f"fleet: WA {r['fleet_wa']:.3f}, imbalance {r['imbalance']:.3f}, "
        f"energy {joules:.1f} J"
    )
    if replicated:
        rp = sec["replication"]
        lines.append(
            f"replication: {rp['replica_writes']} replica writes "
            f"({rp['replica_bytes'] / 1e6:.2f} MB), {rp['retries']} retries, "
            f"{rp['failovers']} read failovers, {rp['hedged_reads']} hedged "
            f"({rp['hedge_wins']} wins), {rp['quorum_failures']} quorum misses"
        )
        lines.append(
            f"recovery: {rp['shards_failed']} shard(s) failed, rebuilds "
            f"{rp['rebuilds_completed']}/{rp['rebuilds_started']} completed "
            f"({rp['rebuilds_abandoned']} abandoned, "
            f"{rp['rebuild_bytes'] / 1e6:.2f} MB recopied), "
            f"{rp['unrecovered_parts']} unrecovered parts"
        )
    if sec["health_states"]:
        states, dead = sec["health_states"], sec["dead_shards"]
        lines.append(
            f"health: {sum(1 for s in states.values() if s != 'dead')}"
            f"/{len(states)} shards alive "
            f"(dead: {', '.join(dead) if dead else 'none'})"
        )
    if replicated:
        d = sec["durability"]
        lines.append(
            f"durability: {d['checked_blocks']} acked blocks audited, "
            f"{len(d['lost'])} lost, {len(d['corrupt'])} corrupt, "
            f"{len(d['under_replicated'])} range(s) under-replicated "
            f"-> {d['verdict']}"
        )
    if "critical_path" in sec:
        lines.append("")
        lines.append(sec["critical_path"]["text"])
    if sec.get("alerts"):
        lines.append("")
        lines.append(f"alert events: {len(sec['alerts'])}")
        for ev in sec["alerts"][:8]:
            lines.append(
                f"  {ev['t']:8.3f}s  {ev['tenant']:<10} {ev['kind']:<6} "
                f"burn fast {ev['fast_burn']:.2f} / slow {ev['slow_burn']:.2f}"
            )
    lines.append(
        "OK: no lost acked writes, SLO accounting consistent"
        if not record.failures else "FAIL: " + "; ".join(record.failures)
    )
    return "\n".join(lines)


def run_cluster(
    n_shards: int = 4,
    n_tenants: int = 8,
    max_requests: int = 1_500,
    capacity_mb: int = 64,
    sampler=None,
    trace: bool = False,
    alerts=None,
    fault_plan: Optional[FaultPlan] = None,
    replication_factor: int = 1,
    quorum: str = "majority",
    hedge_reads: bool = False,
) -> RunRecord:
    """Run the fleet exhibit: interleaved tenants + one live migration.

    At 25 % of the earliest stream's span the heaviest range on the
    physically fullest shard is migrated to the emptiest shard not
    already holding it — under full foreground load.
    ``sampler`` optionally attaches a
    :class:`~repro.telemetry.TimeSeriesSampler` via
    :func:`~repro.telemetry.timeseries.bind_cluster_metrics`.
    ``trace=True`` builds the fleet with a cluster-wide
    :class:`~repro.telemetry.disttrace.DistTracer` and runs the
    critical-path conservation check after the replay — any trace whose
    critical path fails to sum to its end-to-end latency becomes a run
    failure.  ``alerts`` optionally takes a
    :class:`~repro.telemetry.alerts.BurnRateEngine` to ride the
    sampler's ticks (requires ``sampler``).

    Every range is kept on ``replication_factor`` shards and writes ack
    at ``quorum``; the post-run durability audit grades every run (see
    the module docstring for the verdict/exit-code convention).
    ``fault_plan`` switches the exhibit into **chaos mode**: the plan
    is armed on every shard, the health monitor attaches and the forced
    migration kick is skipped.

    The ``cluster`` record mirrors :class:`~repro.cluster.ClusterOutcome`:
    ``results`` has its scalars (``n_requests``, ``horizon``,
    ``fleet_wa``, ``imbalance``, ``migration_bytes``) and ``sections``
    every other field it filled, under the field's name — ``tenants``
    (plus each one's ``workload``), ``shards``, ``stats``,
    ``migration``, ``energy``, ``lost_writes``, ``replication``,
    ``durability`` (plus its ``verdict``), ``dead_shards``,
    ``health_states`` and, under a plan, ``fault_stats`` — along
    with ``critical_path`` and ``alerts`` when traced / alerting.
    ``failures`` lists broken run invariants; any of them grades the
    run at least DEGRADED.  ``live`` holds the ``outcome``
    (:class:`~repro.cluster.ClusterOutcome`) and, when traced, the
    fleet's ``tracing`` :class:`~repro.telemetry.disttrace.DistTracer`
    and its ``critical``-path report.
    """
    specs = tenant_roster(n_tenants)
    fleet = build_cluster(
        specs,
        ClusterReplayConfig(
            n_shards=n_shards, capacity_mb=capacity_mb,
            fault_plan=fault_plan,
            replication_factor=replication_factor,
            quorum=quorum, hedge_reads=hedge_reads,
        ),
        tracing=trace,
    )
    replayer = ClusterReplayer(fleet)
    streams = make_tenant_streams(
        [s.name for s in specs], max_requests=max_requests
    )
    for stream in streams:
        replayer.schedule(stream.tenant, stream.trace)
    if alerts is not None and sampler is None:
        raise ValueError("alerts requires a sampler to ride on")
    if sampler is not None:
        from repro.telemetry.timeseries import bind_cluster_metrics

        bind_cluster_metrics(sampler, fleet)
        if alerts is not None:
            alerts.attach(sampler, fleet.cluster.scheduler)
        fleet.balancer.on_suggest = (
            lambda src, dst, imb: sampler.mark("rebalance", f"{src}->{dst}")
        )
        sampler.start()

    migrations: List[Migration] = []
    span = min(s.trace.duration for s in streams if len(s.trace))

    def _kick() -> None:
        pair = fleet.balancer.suggest()
        if pair is not None:
            src = pair[0]
        else:  # balanced fleet: still exercise the machinery
            snap = fleet.balancer.snapshot()
            src = max(snap.values(), key=lambda s: (s.physical_bytes, s.name)).name
        ridx = fleet.balancer.pick_range(src)
        if ridx is None:
            return
        # destination: the emptiest shard not already holding the range
        migrations.append(fleet.orchestrator.migrate(ridx))

    # Chaos runs exercise the failover path in isolation; otherwise a
    # range moves whenever some shard does not already hold it.
    movable = fault_plan is None and n_shards > replication_factor
    if movable:
        fleet.sim.schedule_at(max(span * 0.25, 0.05), _kick)
    outcome = replayer.run()

    failures: List[str] = []
    durability = outcome.durability
    if durability.lost:
        failures.append(
            f"{len(durability.lost)} acked blocks lost "
            f"(e.g. {durability.lost[:5]})"
        )
    if durability.corrupt:
        failures.append(
            f"{len(durability.corrupt)} acked blocks corrupt "
            f"(e.g. {durability.corrupt[:5]})"
        )
    if movable and not migrations:
        failures.append("no migration was started")
    for m in migrations:
        if not m.done:
            failures.append(
                f"migration of range {m.range_idx} stuck in {m.state!r}"
            )
    for name, t in outcome.tenants.items():
        if t.completed != t.submitted:
            failures.append(
                f"tenant {name}: {t.submitted} submitted but "
                f"{t.completed} completed"
            )
        if t.slo_violations > t.completed:
            failures.append(
                f"tenant {name}: SLO accounting inconsistent "
                f"({t.slo_violations} violations > {t.completed} completed)"
            )
        if t.slo is None and t.slo_violations:
            failures.append(
                f"tenant {name}: SLO violations recorded without an SLO"
            )
    critical = None
    if trace:
        from repro.telemetry.disttrace import analyze_critical_paths

        critical = analyze_critical_paths(fleet.tracing)
        failures.extend(critical.violations)
        if critical.n_traces == 0:
            failures.append("tracing enabled but no trace completed")

    verdict = verdicts.worst(
        verdicts.grade(degraded=failures), durability.verdict
    )
    # The record mirrors ClusterOutcome: its scalars are the results,
    # every other field it filled is a section of the same name.
    sections = {k: v for k, v in asdict(outcome).items() if v is not None}
    results = {
        k: sections.pop(k)
        for k in ("n_requests", "horizon", "fleet_wa", "imbalance",
                  "migration_bytes")
    }
    for stream in streams:
        sections["tenants"][stream.tenant]["workload"] = stream.workload
    sections["durability"]["verdict"] = durability.verdict
    if critical is not None:
        sections["critical_path"] = {
            "n_traces": critical.n_traces,
            "layer_seconds": critical.layer_seconds,
            "self_seconds": critical.self_seconds,
            "violations": critical.violations,
            "text": critical.render(),
        }
    if alerts is not None:
        sections["alerts"] = [asdict(ev) for ev in alerts.events]
    return RunRecord(
        kind="cluster",
        scenario={
            "n_shards": n_shards,
            "n_tenants": n_tenants,
            "max_requests": max_requests,
            "capacity_mb": capacity_mb,
            "trace": trace,
            "alerts": alerts is not None,
            "replication_factor": replication_factor,
            "quorum": quorum,
            "hedge_reads": hedge_reads,
            "plan": fault_plan.to_dict() if fault_plan is not None else None,
        },
        results=results,
        sections=sections,
        failures=failures,
        verdict=verdict,
        live={
            "outcome": outcome, "tracing": fleet.tracing,
            "critical": critical,
        },
    )
