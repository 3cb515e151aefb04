"""Tests for the consistent-hash ring and the cluster distributer."""

import pytest

from repro.cluster import (
    ClusterReplayConfig,
    HashRing,
    TenantSpec,
    build_cluster,
)
from repro.traces.model import IORequest

KEYS = list(range(1000))


def build_fleet(n_shards=2, tenants=None, **cfg_kw):
    cfg_kw.setdefault("capacity_mb", 16)
    cfg_kw.setdefault("namespace_bytes", 4096 * 64 * 4)  # 4 ranges/tenant
    cfg_kw.setdefault("range_blocks", 64)
    cfg = ClusterReplayConfig(n_shards=n_shards, **cfg_kw)
    specs = tenants if tenants is not None else [TenantSpec("t0")]
    return build_cluster(specs, cfg)


def run_all(fleet):
    fleet.sim.run()
    fleet.flush()
    fleet.sim.run()


class TestHashRing:
    def test_deterministic_under_fixed_seed(self):
        a = HashRing(["s0", "s1", "s2"], seed=7)
        b = HashRing(["s0", "s1", "s2"], seed=7)
        assert [a.shard_for(k) for k in KEYS] == [b.shard_for(k) for k in KEYS]

    def test_seed_changes_placement(self):
        a = HashRing(["s0", "s1", "s2"], seed=0)
        b = HashRing(["s0", "s1", "s2"], seed=1)
        assert [a.shard_for(k) for k in KEYS] != [b.shard_for(k) for k in KEYS]

    def test_construction_order_irrelevant(self):
        a = HashRing(["s0", "s1", "s2"])
        b = HashRing(["s2", "s0", "s1"])
        assert [a.shard_for(k) for k in KEYS] == [b.shard_for(k) for k in KEYS]

    def test_add_shard_moves_bounded_fraction(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        before = {k: ring.shard_for(k) for k in KEYS}
        ring.add_shard("s4")
        after = {k: ring.shard_for(k) for k in KEYS}
        moved = [k for k in KEYS if before[k] != after[k]]
        # expectation is K/N = 200; allow 2x for hash variance
        assert len(moved) <= 2 * len(KEYS) // 5
        # adding a shard only *steals* keys — every moved key lands on it
        assert all(after[k] == "s4" for k in moved)

    def test_remove_shard_moves_only_its_keys(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        before = {k: ring.shard_for(k) for k in KEYS}
        ring.remove_shard("s2")
        after = {k: ring.shard_for(k) for k in KEYS}
        for k in KEYS:
            if before[k] != "s2":
                assert after[k] == before[k]
            else:
                assert after[k] != "s2"

    def test_virtual_node_balance(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        counts = {}
        for k in KEYS:
            counts[ring.shard_for(k)] = counts.get(ring.shard_for(k), 0) + 1
        assert all(counts.get(f"s{i}", 0) >= 50 for i in range(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        ring = HashRing(["a", "b"])
        with pytest.raises(ValueError):
            ring.add_shard("a")
        with pytest.raises(ValueError):
            ring.remove_shard("zz")
        ring.remove_shard("b")
        with pytest.raises(ValueError):
            ring.remove_shard("a")  # never drop the last shard


class TestClusterDistributer:
    def test_globalize_mirrors_single_device_fold(self):
        fleet = build_fleet()
        c = fleet.cluster
        req = IORequest(1.0, "W", c.namespace_bytes + 8192, 4096)
        g = c.globalize("t0", req)
        folded = c.namespace_bytes // 4096
        assert g.lba == ((req.lba // 4096) % folded) * 4096
        assert g.nbytes == 4096
        assert g.time == req.time

    def test_tenant_namespaces_disjoint(self):
        fleet = build_fleet(
            tenants=[TenantSpec("a"), TenantSpec("b")]
        )
        c = fleet.cluster
        ga = c.globalize("a", IORequest(0.0, "W", 0, 4096))
        gb = c.globalize("b", IORequest(0.0, "W", 0, 4096))
        assert ga.lba == 0
        assert gb.lba == c.namespace_bytes

    def test_write_read_complete_through_cluster(self):
        fleet = build_fleet()
        c = fleet.cluster
        done = []
        c.write("t0", 0, 8192, on_complete=lambda: done.append("w"))
        run_all(fleet)
        c.read("t0", 0, 8192, on_complete=lambda: done.append("r"))
        run_all(fleet)
        assert done == ["w", "r"]
        assert c.stats.issued_writes == 1
        assert c.stats.issued_reads == 1
        assert c.outstanding == 0
        assert c.check_no_lost_writes() == []

    def test_requests_span_ranges_without_split_on_one_owner(self):
        fleet = build_fleet(n_shards=1)
        c = fleet.cluster
        # crosses the range-0/range-1 boundary but there is one shard
        c.write("t0", c.range_bytes - 4096, 8192)
        run_all(fleet)
        assert c.stats.split_requests == 0
        assert c.check_no_lost_writes() == []

    def test_requests_split_when_owners_differ(self):
        fleet = build_fleet(n_shards=2)
        c = fleet.cluster
        boundary = None
        total = 2 * 4  # tenants x ranges per namespace
        for r in range(total - 1):
            if c.owner_of(r) != c.owner_of(r + 1):
                boundary = r
                break
        assert boundary is not None, "ring put every range on one shard"
        c.write("t0", (boundary + 1) * c.range_bytes - 4096, 8192)
        run_all(fleet)
        assert c.stats.split_requests == 1
        assert c.check_no_lost_writes() == []

    def test_trim_attempted_vs_effective(self):
        fleet = build_fleet()
        c = fleet.cluster
        c.write("t0", 0, 4096)
        run_all(fleet)
        assert c.trim("t0", 0, 4096) == 1
        assert c.trim("t0", 0, 4096) == 0  # nothing left
        assert c.stats.trims_attempted == 2
        assert c.stats.trims_effective == 1
        assert c.check_no_lost_writes() == []

    def test_lost_write_detected(self):
        fleet = build_fleet()
        c = fleet.cluster
        c.write("t0", 0, 4096)
        run_all(fleet)
        # sabotage: drop the mapping behind the cluster's back
        owner = c.owner_of(0)
        assert c.shards[owner].discard(0, 4096) == 1
        assert c.check_no_lost_writes() == [0]

    def test_uniform_block_size_required(self):
        fleet = build_fleet()
        with pytest.raises(ValueError):
            type(fleet.cluster)(
                fleet.sim, {}, [TenantSpec("x")]
            )
