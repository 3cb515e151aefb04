"""Tests for per-shard capacity tracking and imbalance detection."""

import pytest

from repro.cluster import ShardCapacity, TenantSpec
from repro.cluster.capacity import CapacityBalancer

from tests.test_cluster_routing import build_fleet, run_all


def fake_snap(**phys):
    return {
        name: ShardCapacity(
            name=name, logical_bytes=2 * p, physical_bytes=p,
            ratio=2.0, queue_depth=0, ranges=1,
        )
        for name, p in phys.items()
    }


class TestImbalanceMath:
    def test_empty_fleet_is_balanced(self):
        fleet = build_fleet(n_shards=3)
        assert fleet.balancer.imbalance() == 0.0
        assert not fleet.balancer.is_imbalanced()
        assert fleet.balancer.suggest() is None

    def test_spread_over_mean(self):
        fleet = build_fleet(n_shards=2)
        snap = fake_snap(shard0=300, shard1=100)
        assert fleet.balancer.imbalance(snap) == pytest.approx(1.0)

    def test_suggest_orders_full_to_empty(self):
        fleet = build_fleet(n_shards=2)
        b = CapacityBalancer(fleet.cluster)
        assert b.is_imbalanced(fake_snap(shard0=300, shard1=100))
        # suggest() reads live devices, so drive real skew instead
        c = fleet.cluster
        heavy = c.owner_of(0)
        start_blk = 0  # range 0 is tenant t0's first range
        for i in range(8):
            c.write("t0", (start_blk + i) * 4096, 4096)
        run_all(fleet)
        pair = fleet.balancer.suggest()
        assert pair is not None
        src, dst = pair
        assert src == heavy
        assert dst != heavy


class TestSnapshots:
    def test_snapshot_tracks_occupancy_and_ratio(self):
        fleet = build_fleet(n_shards=2)
        c = fleet.cluster
        for i in range(6):
            c.write("t0", i * 4096, 4096)
        run_all(fleet)
        snap = fleet.balancer.snapshot()
        total_logical = sum(s.logical_bytes for s in snap.values())
        total_physical = sum(s.physical_bytes for s in snap.values())
        assert total_logical == 6 * 4096
        assert 0 < total_physical <= total_logical
        for s in snap.values():
            if s.physical_bytes:
                assert s.ratio == pytest.approx(
                    s.logical_bytes / s.physical_bytes
                )
        assert sum(s.ranges for s in snap.values()) == (
            fleet.balancer.total_ranges()
        )

    def test_queue_depth_live(self):
        fleet = build_fleet()
        c = fleet.cluster
        c.write("t0", 0, 4096)
        snap = fleet.balancer.snapshot()  # before the event loop runs
        assert sum(s.queue_depth for s in snap.values()) == 1
        run_all(fleet)
        snap = fleet.balancer.snapshot()
        assert sum(s.queue_depth for s in snap.values()) == 0


class TestPickRange:
    def test_picks_heaviest_owned_range(self):
        fleet = build_fleet(n_shards=2, tenants=[TenantSpec("t0")])
        c = fleet.cluster
        owner0 = c.owner_of(0)
        # 3 blocks in range 0, 1 block in range 1 (if same owner)
        for i in range(3):
            c.write("t0", i * 4096, 4096)
        run_all(fleet)
        picked = fleet.balancer.pick_range(owner0)
        assert picked == 0
        assert fleet.balancer.range_weight(0) == 3

    def test_exclude_and_empty(self):
        fleet = build_fleet(n_shards=2)
        c = fleet.cluster
        owner0 = c.owner_of(0)
        c.write("t0", 0, 4096)
        run_all(fleet)
        assert fleet.balancer.pick_range(owner0, exclude=(0,)) is None
        other = next(n for n in c.shards if n != owner0)
        if not fleet.balancer.ranges_of(other):
            assert fleet.balancer.pick_range(other) is None
