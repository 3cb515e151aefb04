"""Tests for live shard migration: dual writes, cutover, invariants.

Every case runs on a single-copy fleet and on a 2-way replicated one:
the replication manager is the only request path, so "replicated" and
"can be moved" have to be the same fleet.
"""

import pytest

from repro.cluster import TenantSpec
from repro.cluster.migration import MigrationError

from tests.test_cluster_routing import build_fleet, run_all

BS = 4096


@pytest.fixture(params=[1, 2], ids=["rf1", "rf2"])
def rf(request):
    return request.param


def fleet_for(rf, spares=1, **kw):
    """A fleet with ``spares`` shards beyond each range's replica set."""
    return build_fleet(n_shards=rf + spares, replication_factor=rf, **kw)


def spare(fleet, ridx):
    """A shard not holding ``ridx`` (a legal migration destination)."""
    holders = fleet.replication.targets(ridx)
    return next(n for n in fleet.cluster.shards if n not in holders)


def populate(fleet, blocks, tenant="t0"):
    for blk in blocks:
        fleet.cluster.write(tenant, blk * BS, BS)
    run_all(fleet)


def assert_fully_durable(fleet):
    d = fleet.replication.audit_durability()
    assert d.verdict == "RECOVERED", (d.lost, d.corrupt, d.under_replicated)
    assert not d.under_replicated


class TestQuietMigration:
    def test_range_moves_and_source_drains(self, rf):
        fleet = fleet_for(rf)
        c, mgr = fleet.cluster, fleet.replication
        populate(fleet, range(8))  # range 0 (64 blocks/range)
        src = c.owner_of(0)
        peers = mgr.targets(0)[1:]
        dst = spare(fleet, 0)
        done = []
        fleet.orchestrator.migrate(0, dst, on_done=done.append)
        run_all(fleet)
        m = done[0]
        assert m.done and m.src == src and m.dst == dst
        assert m.copied_blocks == 8
        # the placement table is the one answer to "who holds range 0":
        # the destination took the source's slot, the peers stayed
        assert mgr.members[0] == [dst] + peers
        assert 0 not in c.dual_writes
        assert c.owner_of(0) == dst
        # source range fully reclaimed, destination serves the data
        src_dev, dst_dev = c.shards[src], c.shards[dst]
        for blk in range(8):
            assert src_dev.mapping.lookup(blk * BS) is None
            assert dst_dev.mapping.lookup(blk * BS) is not None
        assert c.check_no_lost_writes() == []
        assert fleet.orchestrator.stats.discarded_source_blocks == 8
        assert_fully_durable(fleet)

    def test_reads_after_cutover_served_by_a_shard_holding_the_data(self, rf):
        fleet = fleet_for(rf)
        c = fleet.cluster
        populate(fleet, range(4))
        dst = spare(fleet, 0)
        fleet.orchestrator.migrate(0, dst)
        run_all(fleet)
        reads_before = c.shards[dst].backend.stats.reads
        done = []
        c.read("t0", 0, 4 * BS, on_complete=lambda: done.append(True))
        run_all(fleet)
        assert done == [True]
        assert c.shards[dst].backend.stats.reads > reads_before
        for blk in range(4):
            assert c.shards[dst].mapping.lookup(blk * BS) is not None

    def test_writes_after_cutover_land_on_the_new_replica_set(self, rf):
        fleet = fleet_for(rf)
        c, mgr = fleet.cluster, fleet.replication
        populate(fleet, range(4))
        src = c.owner_of(0)
        fleet.orchestrator.migrate(0, spare(fleet, 0))
        run_all(fleet)
        populate(fleet, [9])
        holders = mgr.targets(0)
        assert len(holders) == rf and src not in holders
        for name in holders:
            assert c.shards[name].mapping.lookup(9 * BS) is not None
        assert c.shards[src].mapping.lookup(9 * BS) is None
        assert_fully_durable(fleet)

    def test_migration_charged_into_device_accounting(self, rf):
        fleet = fleet_for(rf)
        populate(fleet, range(8))
        dst = spare(fleet, 0)
        host_before = fleet.backends[dst].ftl.stats.host_bytes
        busy_before = fleet.backends[dst].queue.stats.busy_time
        fleet.orchestrator.migrate(0, dst)
        run_all(fleet)
        # copy writes land in the destination FTL's host bytes (WA) and
        # occupy its queue (energy) exactly like GC-style traffic
        assert fleet.backends[dst].ftl.stats.host_bytes > host_before
        assert fleet.backends[dst].queue.stats.busy_time > busy_before
        assert fleet.orchestrator.migration_bytes() == 8 * BS


class TestLiveMigration:
    def test_foreground_writes_during_window_not_lost(self, rf):
        fleet = fleet_for(rf)
        c = fleet.cluster
        populate(fleet, range(32))
        dst = spare(fleet, 0)
        done = []
        # keep writing into the migrating range while the copy runs
        def kick():
            fleet.orchestrator.migrate(0, dst, on_done=done.append)
            for i in range(16):
                c.sim.schedule_at(
                    c.sim.now + i * 1e-4,
                    lambda blk=i: c.write("t0", blk * BS, BS),
                )
        c.sim.schedule_at(c.sim.now, kick)
        run_all(fleet)
        m = done[0]
        assert m.done
        assert c.stats.dual_writes > 0  # window saw foreground traffic
        assert m.skipped_dirty + m.copied_blocks <= 32
        assert c.check_no_lost_writes() == []
        # every overwritten block must resolve on the destination
        for blk in range(16):
            assert c.shards[dst].mapping.lookup(blk * BS) is not None
        assert_fully_durable(fleet)

    def test_write_in_flight_when_the_window_opens_survives_cutover(self, rf):
        # Admitted before the dual-write window (so never duplicated) and
        # not yet committed when the copy would take its snapshot: only
        # the quiesce barrier stands between this write and the floor.
        fleet = fleet_for(rf)
        c = fleet.cluster
        populate(fleet, range(4))
        dst = spare(fleet, 0)
        done = []
        c.write("t0", 5 * BS, BS)
        assert c.inflight_in([0])  # the barrier sees every replica attempt
        fleet.orchestrator.migrate(0, dst, on_done=done.append)
        run_all(fleet)
        assert done[0].done
        assert c.shards[dst].mapping.lookup(5 * BS) is not None
        assert c.check_no_lost_writes() == []
        assert_fully_durable(fleet)

    def test_dirty_blocks_skipped_not_resurrected(self, rf):
        fleet = fleet_for(rf)
        c = fleet.cluster
        populate(fleet, range(4))
        dst = spare(fleet, 0)
        done = []
        def kick():
            fleet.orchestrator.migrate(0, dst, on_done=done.append)
            # trim block 2 inside the dual-write window
            c.trim("t0", 2 * BS, BS)
        c.sim.schedule_at(c.sim.now, kick)
        run_all(fleet)
        m = done[0]
        assert m.done
        assert 2 in m.dirty
        # the trimmed block stays trimmed on every shard that had it
        for dev in c.shards.values():
            assert dev.mapping.lookup(2 * BS) is None
        assert c.check_no_lost_writes() == []

    def test_concurrent_migrations_of_distinct_ranges(self, rf):
        fleet = fleet_for(rf, tenants=[TenantSpec("t0")])
        c = fleet.cluster
        populate(fleet, list(range(4)) + list(range(64, 68)))  # ranges 0+1
        done = []
        fleet.orchestrator.migrate(0, spare(fleet, 0), on_done=done.append)
        fleet.orchestrator.migrate(1, spare(fleet, 1), on_done=done.append)
        run_all(fleet)
        assert len(done) == 2 and all(m.done for m in done)
        assert c.check_no_lost_writes() == []
        assert_fully_durable(fleet)

    def test_peer_death_aborts_the_migration_and_rebuild_wins(self):
        # A range is either migrating or being re-replicated, never both.
        fleet = fleet_for(2, spares=2)
        c, mgr = fleet.cluster, fleet.replication
        populate(fleet, range(32))
        _src, peer = mgr.targets(0)
        m = fleet.orchestrator.migrate(0, spare(fleet, 0))

        def kill():
            mgr.on_shard_dead(peer)
            assert 0 in mgr.rebuilding
            with pytest.raises(MigrationError):
                fleet.orchestrator.migrate(0)

        c.sim.schedule_at(c.sim.now + 1e-6, kill)
        run_all(fleet)
        assert m.state == "aborted" and 0 not in c.dual_writes
        assert mgr.stats.rebuilds_completed == mgr.stats.rebuilds_started >= 1
        assert len(mgr.targets(0)) == 2 and peer not in mgr.targets(0)
        assert_fully_durable(fleet)


class TestValidation:
    def test_rejects_busy_range_and_bad_destinations(self, rf):
        fleet = fleet_for(rf)
        c = fleet.cluster
        populate(fleet, range(2))
        dst = spare(fleet, 0)
        fleet.orchestrator.migrate(0, dst)
        with pytest.raises(MigrationError):
            fleet.orchestrator.migrate(0, dst)  # already migrating
        for holder in fleet.replication.targets(1):
            with pytest.raises(MigrationError):
                fleet.orchestrator.migrate(1, holder)  # already lives there
        with pytest.raises(MigrationError):
            fleet.orchestrator.migrate(1, "nope")
        run_all(fleet)

    def test_every_shard_a_holder_leaves_no_destination(self, rf):
        fleet = fleet_for(rf, spares=0)
        populate(fleet, range(2))
        with pytest.raises(MigrationError):
            fleet.orchestrator.migrate(0)

    def test_auto_destination_picks_emptiest(self, rf):
        fleet = fleet_for(rf, spares=2)
        populate(fleet, range(4))
        holders = fleet.replication.targets(0)
        done = []
        fleet.orchestrator.migrate(0, on_done=done.append)
        run_all(fleet)
        assert done[0].done
        assert done[0].dst not in holders
