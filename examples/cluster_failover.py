#!/usr/bin/env python3
"""Fleet fault-tolerance demo: kill a shard mid-run and recover.

Walks the whole failover story on small fleets:

1. **quorum writes + byte-exact replicas** — a 3-shard fleet under
   ``replication_factor=2``: every write fans out to both replicas of
   its range and acks at majority; replica content versions agree with
   the fleet-wide write history, so the copies are byte-identical;
2. **shard death, detection and rebuild** — a scheduled
   :class:`~repro.faults.plan.DeviceFailure` kills a shard under
   foreground load; the heartbeat health monitor walks
   ``alive → suspect → dead``, the dead shard is cut out of the ring,
   and every range it held is re-replicated from the survivors through
   the deprioritised internal rebuild tenant.  The post-run durability
   audit must grade the run ``RECOVERED``: every acked block readable
   and byte-exact on the surviving replicas;
3. **the counterfactual** — the same plan with ``replication_factor=1``
   demonstrably loses data (``DATA-LOSS``, exit code 2) and surfaces
   the failed requests through per-tenant ``unrecovered`` counters —
   never a silent drop.

The CLI equivalent of (2) is::

    python -m repro.bench --cluster --cluster-replication 2 \\
        --cluster-chaos benchmarks/cluster_chaos.json

Run:  python examples/cluster_failover.py
"""

from repro.bench.cluster import run_cluster
from repro.cluster import ClusterReplayConfig, TenantSpec, build_cluster
from repro.faults.plan import DeviceFailure, FaultPlan

BS = 4096


def small_fleet(factor, plan=None):
    return build_cluster(
        [TenantSpec("tenant")],
        ClusterReplayConfig(
            n_shards=3, capacity_mb=32, replication_factor=factor,
            fault_plan=plan,
            namespace_bytes=BS * 64 * 4, range_blocks=64,
        ),
    )


def run_all(fleet):
    fleet.sim.run()
    fleet.flush()
    fleet.sim.run()


def main() -> None:
    # --- 1. quorum writes land on every replica, byte-exact --------------
    fleet = small_fleet(factor=2)
    c, mgr = fleet.cluster, fleet.replication
    for blk in range(0, 256, 8):
        c.write("tenant", blk * BS, BS)
    run_all(fleet)
    reps = mgr.desired_replicas(0)
    print(f"range 0 replicas (primary first): {reps}")
    print(f"replica writes fanned out: {mgr.stats.replica_writes} "
          f"({mgr.stats.replica_bytes / 1e6:.2f} MB)")
    exact = all(
        c.shards[name].version_of(blk) == mgr.versions[blk]
        for blk in sorted(c._acked_blocks)
        for name in mgr.targets(c.range_of(blk * BS))
    )
    print(f"replicas byte-exact (version oracle agrees): {exact}")
    assert exact and mgr.audit_durability().verdict == "RECOVERED"

    # --- 2. kill a shard mid-run; the fleet detects and rebuilds ----------
    print()
    plan = FaultPlan(
        seed=3, device_failures=(DeviceFailure(at=0.02, device="shard1"),)
    )
    fleet = small_fleet(factor=2, plan=plan)
    c, mgr = fleet.cluster, fleet.replication
    for t in (0.0, 0.01, 0.04):  # writes before and after the failure
        for blk in range(0, 256, 16):
            fleet.sim.schedule_at(
                t, lambda b=blk: c.write("tenant", b * BS, BS)
            )
    run_all(fleet)
    h = fleet.health.health["shard1"]
    print(f"shard1 failed at t=0.02s; suspected {h.suspected_at:.4f}s, "
          f"declared dead {h.declared_dead_at:.4f}s")
    print(f"ring after death: {sorted(c.ring.shards)}")
    print(f"rebuilds: {mgr.stats.rebuilds_completed}/"
          f"{mgr.stats.rebuilds_started} completed, "
          f"{mgr.stats.rebuild_blocks} blocks recopied")
    d = mgr.audit_durability()
    print(f"durability audit: {d.checked_blocks} acked blocks, "
          f"{len(d.lost)} lost, {len(d.corrupt)} corrupt -> {d.verdict}")
    assert d.verdict == "RECOVERED"

    # --- 3. the same failure without replication loses data ---------------
    print()
    report = run_cluster(
        n_shards=3, n_tenants=2, max_requests=80, capacity_mb=32,
        fault_plan=FaultPlan(
            seed=5, device_failures=(DeviceFailure(at=0.05, device="shard2"),)
        ),
        replication_factor=1,
    )
    d = report.sections["durability"]
    print(f"replication_factor=1 under the same kind of plan: "
          f"{len(d['lost'])} acked blocks lost, "
          f"{report.live['outcome'].total_unrecovered} requests unrecovered "
          f"-> {report.verdict} (exit {report.exit_code})")
    assert report.verdict == "DATA-LOSS" and report.exit_code == 2


if __name__ == "__main__":
    main()
