"""Fleet-level acceptance tests: degenerate-fleet bit-identity and the
4-shard / 8-tenant live-migration exhibit."""

import hashlib
import io
import json
from dataclasses import asdict

import numpy as np

from repro.bench.cluster import render, run_cluster, tenant_roster
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
from repro.telemetry.timeseries import (
    TimeSeriesSampler,
    bind_cluster_metrics,
    dump_timeseries_jsonl,
)
from repro.traces.multitenant import make_tenant_streams
from repro.traces.workloads import make_workload


class TestDegenerateFleetBitIdentity:
    def test_one_shard_one_tenant_matches_single_device_replay(self):
        trace = make_workload("Fin1", max_requests=400)
        rcfg = ReplayConfig(capacity_mb=32)

        # reference: the existing single-device replay of the folded trace
        sim = Simulator()
        ssd = SimulatedSSD(
            sim, name="shard0", geometry=rcfg.geometry(), timing=rcfg.timing
        )
        content = ContentStore(
            rcfg.content_mix, block_size=4096,
            pool_blocks=rcfg.pool_blocks, seed=rcfg.content_seed,
        )
        ref = build_device(sim, "EDC", ssd, content, config=rcfg.device_config)
        folded = trace.scaled_addresses(rcfg.fold_bytes(4096), 4096)
        TraceReplayer(sim, ref).replay(folded)

        # same trace through a 1-shard / 1-unthrottled-tenant cluster
        fleet = build_cluster(
            [TenantSpec("only")],
            ClusterReplayConfig(n_shards=1, capacity_mb=32),
        )
        replayer = ClusterReplayer(fleet)
        replayer.schedule("only", trace)
        outcome = replayer.run()
        dev = fleet.devices["shard0"]

        # decision stream: mapping + allocator digests are bit-identical
        assert dev.mapping.state_digest() == ref.mapping.state_digest()
        assert dev.allocator.state_digest() == ref.allocator.state_digest()
        # simulated-time metrics: every latency sample, both directions
        assert np.array_equal(
            dev.write_latency.samples(), ref.write_latency.samples()
        )
        assert np.array_equal(
            dev.read_latency.samples(), ref.read_latency.samples()
        )
        assert dev.stats.compression_ratio == ref.stats.compression_ratio
        assert outcome.horizon == sim.now
        assert outcome.lost_writes == []
        # the cluster tier added no queueing: everything admitted directly
        t = outcome.tenants["only"]
        assert t.queued == 0 and t.completed == len(trace)


class TestFleetExhibit:
    def test_four_shards_eight_tenants_with_live_migration(self):
        report = run_cluster(
            n_shards=4, n_tenants=8, max_requests=150, capacity_mb=32
        )
        assert report.ok, report.failures
        out = report.live["outcome"]
        # a migration completed during foreground load, nothing was lost
        assert out.migration.started >= 1
        assert out.migration.completed == out.migration.started
        assert out.lost_writes == []
        assert out.migration_bytes > 0
        # per-tenant SLO stats are reported for every SLO'd tenant
        assert len(out.tenants) == 8
        for spec in tenant_roster(8):
            t = out.tenants[spec.name]
            assert t.completed == t.submitted == 150
            assert (t.slo is None) == (spec.slo is None)
        # migration traffic is charged into fleet WA/energy accounting
        assert out.fleet_wa >= 1.0
        assert out.energy.total_joules > 0
        assert out.energy.device_active_joules > 0

    def test_report_renders(self):
        report = run_cluster(
            n_shards=2, n_tenants=2, max_requests=60, capacity_mb=32
        )
        text = render(report)
        assert "tenant0" in text and "shard0" in text
        assert "migrations:" in text
        assert ("OK" in text) == (not report.failures)

    def test_cluster_metrics_family_sampled(self):
        specs = [TenantSpec("a", rate_iops=300.0, slo=0.01), TenantSpec("b")]
        fleet = build_cluster(
            specs, ClusterReplayConfig(n_shards=2, capacity_mb=32)
        )
        sampler = TimeSeriesSampler(interval=0.05)
        bind_cluster_metrics(sampler, fleet)
        sampler.start()
        replayer = ClusterReplayer(fleet)
        replayer.schedule("a", make_workload("Fin1", max_requests=80))
        replayer.schedule("b", make_workload("Fin2", max_requests=80, seed=7))
        replayer.run()
        sampler.sample_now()
        names = sampler.names()
        for expected in (
            "cluster.backlog",
            "cluster.imbalance",
            "cluster.migrations_active",
            "cluster.migration_bytes",
            "cluster.shard_depth.shard0",
            "cluster.shard_depth.shard1",
            "cluster.tenant_backlog.a",
            "cluster.tenant_slo_violations.a",
        ):
            assert expected in names, (expected, names)
        # label-keyed families carry Prometheus-style labels
        assert sampler.series["cluster.shard_depth.shard0"].labels == {
            "shard": "shard0"
        }
        fp = io.StringIO()
        n = dump_timeseries_jsonl(sampler, fp)
        assert n >= len(names)
        assert all(json.loads(line) for line in fp.getvalue().splitlines())


def test_migration_bytes_visible_in_outcome():
    report = run_cluster(
        n_shards=2, n_tenants=2, max_requests=80, capacity_mb=32
    )
    assert report.ok, report.failures
    assert report.results["migration_bytes"] > 0


# ----------------------------------------------------------------------
# the single-copy fork is gone: factor-1 fleets are byte-identical to it
# ----------------------------------------------------------------------
#: sha256 of each outcome below, recorded at commit 0aedd61 (the last one
#: whose ``ClusterDistributer`` issued factor-1 parts itself instead of
#: through the replication manager).
PARENT_FLEET_SHA256 = {
    "1x3x200": "409f634e10b44cb359f27a553d29f0adfbc73f27c675667c8443a2174caca9ef",
    "4x8x150": "a59954d860099edb206a015ff12f9be62f1ce02a1c9aabec64e5d76be87bc589",
    "exhibit": "ed26e727d286b1ba27f35f5d609dff553c9ecb29bf7fab79706f6106b05a22cc",
}


def _outcome_digest(outcome):
    doc = {
        "tenants": {n: asdict(t) for n, t in outcome.tenants.items()},
        "shards": {n: asdict(s) for n, s in outcome.shards.items()},
        "stats": asdict(outcome.stats),
        "energy": asdict(outcome.energy),
        "fleet_wa": outcome.fleet_wa,
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def _replay_fleet(n_shards, n_tenants, max_requests):
    """A factor-1 fleet replayed without a migration."""
    specs = tenant_roster(n_tenants)
    fleet = build_cluster(
        specs, ClusterReplayConfig(n_shards=n_shards, capacity_mb=32)
    )
    replayer = ClusterReplayer(fleet)
    for stream in make_tenant_streams(
            [s.name for s in specs], max_requests=max_requests):
        replayer.schedule(stream.tenant, stream.trace)
    return replayer.run()


def test_factor_one_fleets_match_the_parent_commit():
    exhibit = run_cluster(
        n_shards=4, n_tenants=8, max_requests=150, capacity_mb=32
    ).live["outcome"]
    assert exhibit.migration.completed == 1
    assert {
        "1x3x200": _outcome_digest(_replay_fleet(1, 3, 200)),
        "4x8x150": _outcome_digest(_replay_fleet(4, 8, 150)),
        "exhibit": _outcome_digest(exhibit),
    } == PARENT_FLEET_SHA256


def test_replicated_exhibit_migrates_and_stays_fully_redundant():
    report = run_cluster(
        n_shards=3, n_tenants=3, max_requests=120, capacity_mb=32,
        replication_factor=2,
    )
    assert report.ok, report.failures
    assert report.sections["migration"]["completed"] == 1
    d = report.sections["durability"]
    assert d["verdict"] == "RECOVERED" and not d["under_replicated"]
    assert "durability:" in render(report)
