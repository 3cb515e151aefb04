#!/usr/bin/env python3
"""Sharded multi-tenant fleet demo: QoS admission + one live migration.

Stands up a 4-shard cluster of independent EDC devices serving 8
tenants with cycled QoS personalities (unthrottled interactive,
throttled OLTP with a firm SLO, heavily throttled batch,
double-weight premium), drives interleaved per-tenant traces through
the cluster front door, and forces one **live range migration** while
the foreground load keeps running.  Prints:

1. the fleet report from :func:`repro.bench.cluster.run_cluster` —
   per-tenant admission / p95 / SLO-violation accounting, per-shard
   occupancy and realised compression, migration traffic (copy bytes +
   dual writes), fleet write amplification / imbalance / energy, and
   the lost-write invariant verdict;
2. a hand-driven migration on a small 2-shard fleet: where the range
   lived, what the dual-write window saw, what was copied vs skipped
   dirty, and proof that the source drained and the destination serves
   every block;
3. the degenerate-fleet check: one shard + one unthrottled tenant is
   **bit-identical** to the plain single-device replay (same mapping
   and allocator digests, same per-request latencies).

Run:  python examples/cluster_fleet.py
"""

import numpy as np

from repro.bench.cluster import render, run_cluster
from repro.bench.experiments import ReplayConfig
from repro.bench.schemes import build_device
from repro.cluster import (
    ClusterReplayConfig,
    ClusterReplayer,
    TenantSpec,
    build_cluster,
)
from repro.core.replay import TraceReplayer
from repro.flash.ssd import SimulatedSSD
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator
from repro.traces.workloads import make_workload


def main() -> None:
    # --- 1. the fleet exhibit: 4 shards x 8 tenants ----------------------
    report = run_cluster(n_shards=4, n_tenants=8, max_requests=600,
                         capacity_mb=64)
    print(render(report))
    assert report.ok, report.failures

    # --- 2. one live migration, by hand ----------------------------------
    print()
    fleet = build_cluster(
        [TenantSpec("tenant")],
        ClusterReplayConfig(n_shards=2, capacity_mb=32,
                            namespace_bytes=4096 * 64 * 4, range_blocks=64),
    )
    c = fleet.cluster
    for blk in range(48):
        c.write("tenant", blk * 4096, 4096)
    fleet.sim.run()
    fleet.flush()
    fleet.sim.run()

    src = c.owner_of(0)
    dst = next(name for name in c.shards if name != src)
    print(f"range 0 lives on {src}; migrating to {dst} under load")
    done = []

    def kick() -> None:
        fleet.orchestrator.migrate(0, dst, on_done=done.append)
        for i in range(16):  # foreground writes into the moving range
            fleet.sim.schedule_at(
                fleet.sim.now + i * 1e-4,
                lambda blk=i: c.write("tenant", blk * 4096, 4096),
            )

    fleet.sim.schedule_at(fleet.sim.now, kick)
    fleet.sim.run()
    fleet.flush()
    fleet.sim.run()

    m = done[0]
    print(
        f"  copied {m.copied_blocks} blocks, skipped {m.skipped_dirty} "
        f"dirty (dual-written), {c.stats.dual_writes} dual writes"
    )
    print(
        f"  source drained: {fleet.orchestrator.stats.discarded_source_blocks}"
        f" blocks trimmed; owner of range 0 is now {c.owner_of(0)}"
    )
    lost = c.check_no_lost_writes()
    print(f"  lost acked writes: {lost!r}")
    assert m.done and not lost

    # --- 3. the degenerate fleet is bit-identical -------------------------
    print()
    trace = make_workload("Fin1", max_requests=300)
    rcfg = ReplayConfig(capacity_mb=32)
    sim = Simulator()
    ssd = SimulatedSSD(sim, name="shard0", geometry=rcfg.geometry(),
                       timing=rcfg.timing)
    content = ContentStore(rcfg.content_mix, block_size=4096,
                           pool_blocks=rcfg.pool_blocks,
                           seed=rcfg.content_seed)
    ref = build_device(sim, "EDC", ssd, content, config=rcfg.device_config)
    TraceReplayer(sim, ref).replay(
        trace.scaled_addresses(rcfg.fold_bytes(4096), 4096)
    )

    single = build_cluster([TenantSpec("only")],
                           ClusterReplayConfig(n_shards=1, capacity_mb=32))
    replayer = ClusterReplayer(single)
    replayer.schedule("only", trace)
    replayer.run()
    dev = single.devices["shard0"]
    same = (
        dev.mapping.state_digest() == ref.mapping.state_digest()
        and dev.allocator.state_digest() == ref.allocator.state_digest()
        and np.array_equal(dev.write_latency.samples(),
                           ref.write_latency.samples())
    )
    print(f"1-shard/1-tenant cluster bit-identical to single device: {same}")
    assert same


if __name__ == "__main__":
    main()
