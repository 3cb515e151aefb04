"""Tests for fleet fault tolerance: replication, health, chaos recovery."""

import dataclasses

import pytest

from repro.bench import verdicts
from repro.cluster import TenantSpec, quorum_need
from repro.cluster.replication import ReplicationConfig
from repro.cluster.health import HealthMonitor
from repro.cluster.routing import HashRing
from repro.faults.plan import DeviceFailure, FaultPlan
from repro.sim.engine import Simulator

from tests.test_cluster_routing import build_fleet, run_all

BS = 4096


def rep_fleet(n_shards=2, **kw):
    kw.setdefault("replication_factor", 2)
    return build_fleet(n_shards=n_shards, **kw)


def populate(fleet, blocks, tenant="t0"):
    for blk in blocks:
        fleet.cluster.write(tenant, blk * BS, BS)
    run_all(fleet)


# ----------------------------------------------------------------------
# quorum arithmetic & config validation
# ----------------------------------------------------------------------
class TestQuorumNeed:
    def test_values(self):
        assert quorum_need("one", 3) == 1
        assert quorum_need("majority", 1) == 1
        assert quorum_need("majority", 2) == 2
        assert quorum_need("majority", 3) == 2
        assert quorum_need("majority", 5) == 3
        assert quorum_need("all", 4) == 4

    def test_ordering_property(self):
        for factor in range(1, 8):
            one = quorum_need("one", factor)
            maj = quorum_need("majority", factor)
            all_ = quorum_need("all", factor)
            assert 1 == one <= maj <= all_ == factor
            # a majority quorum always intersects any other majority
            assert 2 * maj > factor

    def test_invalid(self):
        with pytest.raises(ValueError):
            quorum_need("some", 3)
        with pytest.raises(ValueError):
            quorum_need("all", 0)


class TestReplicationConfig:
    def test_defaults_valid(self):
        ReplicationConfig()

    @pytest.mark.parametrize("kw", [
        {"factor": 0},
        {"quorum": "plurality"},
        {"max_retries": -1},
        {"retry_backoff_s": 0.0},
        {"deadline_s": 0.0},
        {"hedge_min_samples": 0},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            ReplicationConfig(**kw)


# ----------------------------------------------------------------------
# health monitor state machine
# ----------------------------------------------------------------------
class _FakeBackend:
    failed = False


class _FakeDev:
    def __init__(self):
        self.backend = _FakeBackend()


class TestHealthMonitor:
    def _build(self, sim, dead=None, **kw):
        dev = _FakeDev()
        kw.setdefault("interval", 1e-3)
        kw.setdefault("suspect_after", 1)
        kw.setdefault("dead_after", 3)
        mon = HealthMonitor(
            sim, {"s0": dev},
            on_dead=(dead.append if dead is not None else None), **kw,
        )
        mon.start()
        return mon, dev

    def test_alive_suspect_dead_progression(self):
        sim = Simulator()
        dead = []
        mon, dev = self._build(sim, dead)
        sim.schedule_at(2.5e-3, lambda: setattr(dev.backend, "failed", True))
        sim.schedule_at(10e-3, lambda: None)  # keep the sim alive
        sim.run()
        h = mon.health["s0"]
        assert h.state == "dead"
        assert dead == ["s0"]
        # suspected on the first missed probe, dead on the third
        assert h.suspected_at == pytest.approx(3e-3)
        assert h.declared_dead_at == pytest.approx(5e-3)
        assert mon.dead_shards() == ["s0"] and mon.alive_count() == 0

    def test_successful_probe_clears_suspicion(self):
        sim = Simulator()
        dead = []
        mon, dev = self._build(sim, dead)
        sim.schedule_at(2.5e-3, lambda: setattr(dev.backend, "failed", True))
        sim.schedule_at(3.5e-3, lambda: setattr(dev.backend, "failed", False))
        sim.schedule_at(10e-3, lambda: None)
        sim.run()
        h = mon.health["s0"]
        assert h.state == "alive" and h.misses == 0
        assert h.suspected_at is None
        assert dead == []

    def test_death_reported_once_and_probing_stops(self):
        sim = Simulator()
        dead = []
        mon, dev = self._build(sim, dead)
        dev.backend.failed = True
        sim.schedule_at(20e-3, lambda: None)
        sim.run()
        assert dead == ["s0"]
        probes_at_death = mon.health["s0"].probes
        assert probes_at_death == 3  # no probes counted after death

    def test_start_idempotent(self):
        sim = Simulator()
        mon, _ = self._build(sim)
        mon.start()  # second start must not double the probe cadence
        sim.schedule_at(5.5e-3, lambda: None)
        sim.run()
        assert mon.health["s0"].probes == 5

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            HealthMonitor(sim, {})
        with pytest.raises(ValueError):
            HealthMonitor(sim, {"s0": _FakeDev()}, interval=0.0)
        with pytest.raises(ValueError):
            HealthMonitor(
                sim, {"s0": _FakeDev()}, suspect_after=3, dead_after=2
            )


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
class TestPlacement:
    def test_successor_walk_distinct_and_stable(self):
        ring = HashRing([f"s{i}" for i in range(4)], vnodes=32, seed=3)
        for key in range(16):
            walk = ring.successors(key, 4)
            assert len(walk) == len(set(walk)) == 4
            assert walk[0] == ring.shard_for(key)
        # removing a shard deletes only its own slots: the surviving
        # order is the old walk with the dead name struck out
        before = {k: ring.successors(k, 4) for k in range(16)}
        ring.remove_shard("s2")
        for k, walk in before.items():
            assert ring.successors(k, 3) == [n for n in walk if n != "s2"]

    def test_desired_replicas_primary_first(self):
        fleet = rep_fleet(n_shards=3)
        c, mgr = fleet.cluster, fleet.replication
        for ridx in range(4):
            reps = mgr.desired_replicas(ridx)
            assert len(reps) == len(set(reps)) == 2
            assert reps[0] == c.owner_of(ridx)
            assert reps == c.ring.successors(ridx, 2)

    def test_factor_clamped_to_ring(self):
        fleet = build_fleet(n_shards=2, replication_factor=3)
        assert all(
            len(fleet.replication.desired_replicas(r)) == 2 for r in range(4)
        )

    def test_single_copy_manager_matches_ring(self):
        # a fleet without redundancy is factor 1: placement degenerates
        # to plain ring ownership, and the cluster has exactly one
        # manager and one rebuild tenant however it was built
        fleet = build_fleet(n_shards=2)
        mgr = fleet.replication
        assert mgr is fleet.cluster.replication and mgr.config.factor == 1
        for ridx in range(4):
            assert mgr.targets(ridx) == [fleet.cluster.ring.shard_for(ridx)]
        internal = [
            st for st in fleet.cluster.scheduler.tenants.values()
            if st.spec.internal
        ]
        assert internal == [mgr._rebuild_state]


# ----------------------------------------------------------------------
# quorum writes & replica byte-exactness
# ----------------------------------------------------------------------
class TestQuorumWrites:
    def test_writes_land_on_every_replica_byte_exact(self):
        fleet = rep_fleet(n_shards=2)
        c, mgr = fleet.cluster, fleet.replication
        populate(fleet, range(8))
        for blk in range(8):
            for name in mgr.targets(c.range_of(blk * BS)):
                dev = c.shards[name]
                assert dev.mapping.lookup(blk * BS) is not None
                assert dev._versions[blk] == mgr.versions[blk]
        assert mgr.stats.replica_writes == 8
        assert mgr.stats.replica_bytes == 8 * BS
        d = mgr.audit_durability()
        assert d.verdict == "RECOVERED"
        assert d.checked_blocks == 8 and not d.lost and not d.corrupt

    def test_overwrites_keep_version_oracle_in_sync(self):
        fleet = rep_fleet(n_shards=2)
        c, mgr = fleet.cluster, fleet.replication
        for _ in range(3):
            populate(fleet, [5])
        assert mgr.versions[5] == 3
        for name in mgr.targets(c.range_of(5 * BS)):
            assert c.shards[name]._versions[5] == 3
        assert mgr.audit_durability().verdict == "RECOVERED"

    def test_sloppy_quorum_acks_on_survivor_after_failure(self):
        fleet = rep_fleet(n_shards=2, quorum="all")
        c, mgr = fleet.cluster, fleet.replication
        populate(fleet, range(4))
        victim = c.owner_of(0)
        survivor = next(n for n in c.shards if n != victim)
        fleet.backends[victim].fail_now()
        populate(fleet, [0, 1])
        # quorum shrank to the live replica set; the writes still acked
        assert victim in mgr.down
        assert mgr.stats.quorum_failures >= 1
        assert mgr.stats.retries >= 1
        t = c.scheduler.state("t0").stats
        assert t.completed == t.submitted and t.unrecovered == 0
        assert c.shards[survivor].mapping.lookup(0) is not None
        d = mgr.audit_durability()
        # nothing acked was lost, but the fleet is short one replica
        assert not d.lost and not d.corrupt
        assert d.verdict == "DEGRADED" and d.under_replicated

    def test_no_ack_when_every_replica_is_gone(self):
        fleet = rep_fleet(n_shards=2)
        c = fleet.cluster
        populate(fleet, [0])
        acked_before = set(c._acked_blocks)
        for ssd in fleet.backends.values():
            ssd.fail_now()
        populate(fleet, [1, 2])
        t = c.scheduler.state("t0").stats
        # the parts were surfaced as unrecovered, never falsely acked
        assert t.unrecovered == 2
        assert t.completed == t.submitted
        assert set(c._acked_blocks) == acked_before
        assert fleet.replication.stats.unrecovered_parts == 2


# ----------------------------------------------------------------------
# read failover & hedging
# ----------------------------------------------------------------------
class TestReads:
    def test_read_fails_over_to_secondary(self):
        fleet = rep_fleet(n_shards=2)
        c, mgr = fleet.cluster, fleet.replication
        populate(fleet, range(4))
        fleet.backends[c.owner_of(0)].fail_now()
        done = []
        c.read("t0", 0, 2 * BS, on_complete=lambda: done.append(True))
        run_all(fleet)
        assert done == [True]
        assert mgr.stats.failovers >= 1
        assert c.scheduler.state("t0").stats.unrecovered == 0

    def test_hedged_read_beats_congested_primary(self):
        from repro.traces.model import IORequest, WRITE

        fleet = rep_fleet(n_shards=2)
        c, mgr = fleet.cluster, fleet.replication
        mgr.config = dataclasses.replace(
            mgr.config, hedge_reads=True, hedge_min_samples=1
        )
        populate(fleet, range(4))
        for _ in range(3):  # prime the tenant's latency distribution
            c.read("t0", 0, BS)
        run_all(fleet)
        # bury the primary under direct device writes, then read: the
        # hedge timer fires at the tenant p95 and the idle secondary wins
        primary = c.owner_of(0)
        for i in range(50):
            c.shards[primary].submit(
                IORequest(fleet.sim.now, WRITE, i * BS, BS)
            )
        done = []
        c.read("t0", 0, BS, on_complete=lambda: done.append(True))
        run_all(fleet)
        assert done == [True]
        assert mgr.stats.hedged_reads >= 1
        assert mgr.stats.hedge_wins >= 1


# ----------------------------------------------------------------------
# retry policy: backoff, deadline, budget
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def _manager(self, **kw):
        fleet = rep_fleet(n_shards=2)
        mgr = fleet.replication
        if kw:
            mgr.config = dataclasses.replace(mgr.config, **kw)
        return fleet, mgr, fleet.cluster.scheduler.state("t0")

    def test_backoff_doubles_and_caps(self):
        _, mgr, st = self._manager(
            retry_budget_iops=None, retry_backoff_s=1e-3,
            retry_backoff_cap_s=3e-3, max_retries=10,
        )
        now = mgr.sim.now
        delays = [mgr._allow_retry(st, now, a) for a in range(4)]
        assert delays == [1e-3, 2e-3, 3e-3, 3e-3]

    def test_max_retries_exhausts(self):
        _, mgr, st = self._manager(retry_budget_iops=None, max_retries=2)
        assert mgr._allow_retry(st, mgr.sim.now, 1) is not None
        assert mgr._allow_retry(st, mgr.sim.now, 2) is None

    def test_deadline_propagation_stops_retries(self):
        _, mgr, st = self._manager(retry_budget_iops=None, deadline_s=1e-3)
        # admitted long ago: no retry can finish inside the deadline
        assert mgr._allow_retry(st, mgr.sim.now - 1.0, 0) is None
        assert mgr.stats.deadline_exhausted == 1
        # admitted just now: the deadline still has room
        assert mgr._allow_retry(st, mgr.sim.now, 0) is not None

    def test_retry_budget_is_per_tenant_and_bounded(self):
        _, mgr, st = self._manager(
            retry_budget_iops=1e-6, retry_budget_burst=2.0
        )
        now = mgr.sim.now
        assert mgr._allow_retry(st, now, 0) is not None
        assert mgr._allow_retry(st, now, 0) is not None
        assert mgr._allow_retry(st, now, 0) is None  # burst spent
        assert mgr.stats.retry_budget_exhausted == 1
        # another tenant draws from its own bucket
        bucket = mgr._retry_bucket("someone-else")
        assert bucket is not None and bucket.try_consume(now)


# ----------------------------------------------------------------------
# scheduled shard death, rebuild, durability verdicts
# ----------------------------------------------------------------------
def chaos_fleet(n_shards, factor, at=0.02, victim="shard1", **kw):
    plan = FaultPlan(
        seed=3, device_failures=(DeviceFailure(at=at, device=victim),)
    )
    return build_fleet(
        n_shards=n_shards, replication_factor=factor, fault_plan=plan, **kw
    )


def staged_writes(fleet, blocks, times, tenant="t0"):
    c = fleet.cluster
    for t in times:
        for blk in blocks:
            fleet.sim.schedule_at(
                t, lambda b=blk: c.write(tenant, b * BS, BS)
            )
    run_all(fleet)


class TestScheduledShardDeath:
    def test_rf2_recovers_with_byte_exact_rebuild(self):
        fleet = chaos_fleet(n_shards=3, factor=2)
        c, mgr = fleet.cluster, fleet.replication
        # writes across all 4 ranges before and after the failure
        staged_writes(fleet, range(0, 256, 16), times=[0.0, 0.01, 0.04])
        assert fleet.backends["shard1"].failed
        assert fleet.health.state_of("shard1") == "dead"
        assert "shard1" in c.decommissioned
        assert "shard1" not in c.ring.shards
        assert mgr.stats.shards_failed == 1
        assert mgr.stats.rebuilds_started >= 1
        assert mgr.stats.rebuilds_completed == mgr.stats.rebuilds_started
        assert mgr.stats.rebuilds_abandoned == 0
        t = c.scheduler.state("t0").stats
        assert t.completed == t.submitted and t.unrecovered == 0
        d = mgr.audit_durability()
        assert d.verdict == "RECOVERED", (d.lost, d.under_replicated)
        # every acked block is byte-exact on every surviving replica
        for blk in sorted(c._acked_blocks):
            for name in mgr.targets(c.range_of(blk * BS)):
                dev = c.shards[name]
                assert dev.mapping.lookup(blk * BS) is not None
                assert dev._versions[blk] == mgr.versions[blk]

    def test_rf1_same_plan_is_data_loss(self):
        fleet = chaos_fleet(n_shards=3, factor=1)
        c, mgr = fleet.cluster, fleet.replication
        staged_writes(fleet, range(0, 256, 16), times=[0.0, 0.01, 0.04])
        assert fleet.health.state_of("shard1") == "dead"
        d = mgr.audit_durability()
        assert d.verdict == "DATA-LOSS" and d.lost
        assert verdicts.exit_code(d.verdict) == 2
        # post-death writes to the dead shard's ranges surface as
        # unrecovered on the tenant, never silently dropped
        t = c.scheduler.state("t0").stats
        assert t.unrecovered > 0
        assert t.completed == t.submitted
        assert mgr.stats.unrecovered_parts == t.unrecovered

    def test_two_shard_fleet_shrinks_to_full_redundancy(self):
        # with the dead shard out of the ring, factor clamps to 1 and the
        # surviving copy *is* full redundancy: RECOVERED, not DEGRADED
        fleet = chaos_fleet(n_shards=2, factor=2)
        staged_writes(fleet, range(0, 256, 32), times=[0.0, 0.01, 0.04])
        d = fleet.replication.audit_durability()
        assert d.verdict == "RECOVERED", (d.lost, d.under_replicated)


class TestProgramFaultDurability:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_absorbed_program_faults_never_break_quorum(self, seed):
        # device-level bad blocks are retired below the cluster: every
        # acked quorum write stays durable and byte-exact on all replicas
        plan = FaultPlan(seed=seed, program_fault_prob=0.3)
        fleet = build_fleet(
            n_shards=2, replication_factor=2, quorum="all", fault_plan=plan
        )
        c, mgr = fleet.cluster, fleet.replication
        populate(fleet, list(range(0, 64, 2)) + list(range(0, 64, 4)))
        assert sum(i.stats.program_faults for i in fleet.injectors) > 0
        assert mgr.stats.quorum_failures == 0
        assert mgr.stats.unrecovered_parts == 0
        d = mgr.audit_durability()
        assert d.verdict == "RECOVERED"
        for blk in sorted(c._acked_blocks):
            for name in mgr.targets(c.range_of(blk * BS)):
                assert c.shards[name]._versions[blk] == mgr.versions[blk]


# ----------------------------------------------------------------------
# membership change during an active migration (abort, no dangling state)
# ----------------------------------------------------------------------
class TestMigrationAbortOnMembershipChange:
    def test_decommission_dst_mid_copy_aborts_cleanly(self):
        fleet = build_fleet(n_shards=3)
        c = fleet.cluster
        populate(fleet, range(32))
        src = c.owner_of(0)
        dst = next(n for n in c.shards if n != src)
        m = fleet.orchestrator.migrate(0, dst)
        fleet.sim.schedule_at(
            fleet.sim.now + 1e-6, lambda: c.decommission_shard(dst)
        )
        run_all(fleet)
        assert m.state == "aborted" and not m.done
        assert fleet.orchestrator.stats.aborted == 1
        # no dangling dual-write window, placement never named dst
        assert 0 not in c.dual_writes
        assert fleet.replication.members[0] == [src]
        assert c.owner_of(0) == src
        assert c.check_no_lost_writes() == []

    def test_decommission_takes_a_cutover_destination_out_of_placement(self):
        fleet = build_fleet(n_shards=3)
        c = fleet.cluster
        populate(fleet, range(8))
        src = c.owner_of(0)
        dst = next(n for n in c.shards if n != src)
        fleet.orchestrator.migrate(0, dst)
        run_all(fleet)
        assert fleet.replication.members[0] == [dst]
        c.decommission_shard(dst)
        assert fleet.replication.targets(0) == []
        assert c.owner_of(0) != dst


# ----------------------------------------------------------------------
# replica ingest primitives
# ----------------------------------------------------------------------
class TestReplicaIngest:
    def test_ingest_replica_floors_versions_and_maps(self):
        fleet = build_fleet(n_shards=2)
        c = fleet.cluster
        populate(fleet, [5])
        owner = c.owner_of(c.range_of(5 * BS))
        other = next(n for n in c.shards if n != owner)
        version = c.shards[owner]._versions[5]
        assert version >= 1
        c.shards[other].ingest_replica(5 * BS, BS, (version,))
        run_all(fleet)
        assert c.shards[other].mapping.lookup(5 * BS) is not None
        assert c.shards[other]._versions[5] == version

    def test_ingest_replica_validates(self):
        fleet = build_fleet(n_shards=1)
        dev = fleet.cluster.shards["shard0"]
        with pytest.raises(ValueError):
            dev.ingest_replica(0, 2 * BS, (1,))  # 2 blocks, 1 version
        with pytest.raises(ValueError):
            dev.ingest_replica(0, BS, (0,))  # versions start at 1

    def test_set_version_floor_never_lowers(self):
        fleet = build_fleet(n_shards=1)
        dev = fleet.cluster.shards["shard0"]
        dev.set_version_floor(9, 4)
        assert dev._versions[9] == 4
        dev.set_version_floor(9, 2)
        assert dev._versions[9] == 4
        dev.set_version_floor(9, 7)
        assert dev._versions[9] == 7


# ----------------------------------------------------------------------
# metrics & harness surface
# ----------------------------------------------------------------------
class TestFaultToleranceMetrics:
    def test_chaos_fleet_exposes_fault_vocabulary(self):
        from repro.telemetry.timeseries import (
            TimeSeriesSampler,
            bind_cluster_metrics,
        )

        fleet = chaos_fleet(n_shards=3, factor=2)
        sampler = TimeSeriesSampler(interval=5e-3)
        bind_cluster_metrics(sampler, fleet)
        sampler.start()
        staged_writes(fleet, range(0, 256, 32), times=[0.0, 0.01, 0.04])
        sampler.sample_now()
        names = sampler.names()
        for expected in (
            "cluster.unrecovered.t0",
            "cluster.replica_writes",
            "cluster.retries",
            "cluster.failovers",
            "cluster.rebuilds_active",
            "cluster.shards_alive",
            "cluster.shard_health.shard1",
        ):
            assert expected in names, (expected, names)
        assert sampler.series["cluster.shard_health.shard1"].labels == {
            "shard": "shard1"
        }

    def test_fault_free_fleet_scrape_is_unchanged(self):
        from repro.telemetry.timeseries import (
            TimeSeriesSampler,
            bind_cluster_metrics,
        )

        fleet = build_fleet(n_shards=2)
        sampler = TimeSeriesSampler(interval=5e-3)
        bind_cluster_metrics(sampler, fleet)
        sampler.start()
        populate(fleet, range(8))
        sampler.sample_now()
        names = sampler.names()
        assert "cluster.unrecovered.t0" in names
        assert not any(
            n.startswith(("cluster.replica_writes", "cluster.shards_alive",
                          "cluster.shard_health"))
            for n in names
        )


class TestChaosHarness:
    def test_run_cluster_chaos_recovers_under_rf2(self):
        from repro.bench.cluster import render, run_cluster

        plan = FaultPlan(
            seed=5, device_failures=(DeviceFailure(at=0.05, device="shard2"),)
        )
        report = run_cluster(
            n_shards=3, n_tenants=2, max_requests=80, capacity_mb=32,
            fault_plan=plan, replication_factor=2,
        )
        sec = report.sections
        assert sec["dead_shards"] == ["shard2"]
        assert sec["health_states"]["shard2"] == "dead"
        assert sec["replication"]["shards_failed"] == 1
        assert sec["durability"]["verdict"] == "RECOVERED", report.failures
        assert report.exit_code == 0
        text = render(report)
        assert "durability:" in text and "RECOVERED" in text
        assert "recovery: 1 shard(s) failed" in text

    def test_run_cluster_chaos_rf1_is_data_loss(self):
        from repro.bench.cluster import run_cluster

        plan = FaultPlan(
            seed=5, device_failures=(DeviceFailure(at=0.05, device="shard2"),)
        )
        report = run_cluster(
            n_shards=3, n_tenants=2, max_requests=80, capacity_mb=32,
            fault_plan=plan, replication_factor=1,
        )
        assert report.sections["durability"]["verdict"] == "DATA-LOSS"
        assert report.verdict == "DATA-LOSS"
        assert report.exit_code == 2
        assert not report.ok
        assert report.live["outcome"].total_unrecovered == sum(
            t["unrecovered"] for t in report.sections["tenants"].values()
        )
