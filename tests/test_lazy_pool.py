"""When a content pool is built.

A :class:`~repro.sdgen.generator.ContentStore` builds its pool on the
first read of a block or kind and holds it from then on.  A device
resolves its store's pool at construction, outside the replay, unless
it can never read a content byte: Native with ``crc_checks``,
``semantic_hints`` and ``verify_reads`` all off.  A spy on
:func:`~repro.sdgen.generator._build_pool` counts every resolution,
cache hits included.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.cluster import tenant_roster
from repro.bench.experiments import ReplayConfig, replay
from repro.bench.schemes import SCHEMES
from repro.cluster import ClusterReplayConfig, build_cluster
from repro.core.config import EDCConfig
from repro.recovery import metadata_digest
from repro.sdgen import generator
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentStore, _build_pool
from repro.telemetry import DecisionAuditor
from repro.telemetry.audit import parse_shadow_spec
from repro.traces.workloads import make_workload

FLAGS = ("crc_checks", "semantic_hints", "verify_reads")


@pytest.fixture
def builds(monkeypatch):
    """Every ``_build_pool`` call, in order (the real cache still answers)."""
    calls = []

    def spy(*key):
        calls.append(key)
        return _build_pool(*key)

    monkeypatch.setattr(generator, "_build_pool", spy)
    return calls


@pytest.fixture(scope="module")
def trace():
    return make_workload("Fin1", max_requests=150, seed=3)


def replay_marked(trace, scheme, builds, flag=None, on_built=None, **observers):
    """Replay with a daemon event at time 0, scheduled before the trace
    so it is the first event dispatched; returns the builds seen by then
    and the replay's digest."""
    config = EDCConfig(**{flag: True}) if flag else EDCConfig()
    cfg = ReplayConfig(capacity_mb=16, device_config=config)
    seen, stack = [], {}

    def built(sim, device, backend, devices):
        stack.update(device=device, ssd=backend)
        if on_built is not None:
            on_built(device)
        sim.schedule_at(0.0, lambda: seen.append(len(builds)), daemon=True)

    result = replay(trace, scheme, cfg, on_built=built, **observers)
    device = stack["device"]
    h = hashlib.sha256(repr(result).encode())
    ftl = stack["ssd"].ftl
    h.update(metadata_digest(device.mapping, device.allocator, ftl).encode())
    for rec in (device.write_latency, device.read_latency):
        h.update(np.ascontiguousarray(rec.samples()).tobytes())
    return seen[0], h.hexdigest()


@pytest.mark.parametrize("flag", (None,) + FLAGS, ids=lambda f: f or "plain")
@pytest.mark.parametrize("scheme", SCHEMES)
def test_no_build_after_the_first_event(trace, builds, scheme, flag):
    before_first_event, _ = replay_marked(trace, scheme, builds, flag)
    assert before_first_event == len(builds)
    assert len(builds) == (0 if scheme == "Native" and flag is None else 1)


def test_the_native_replay_equals_the_eager_stores(trace, builds):
    _, lazy = replay_marked(trace, "Native", builds)
    assert builds == []
    _, eager = replay_marked(
        trace, "Native", builds, on_built=lambda device: device.content.resolve())
    assert len(builds) == 1
    assert lazy == eager


def test_a_shadow_auditor_builds_before_the_replay(trace, builds):
    auditor = DecisionAuditor(shadows=parse_shadow_spec("lzf"))
    before_first_event, _ = replay_marked(trace, "Native", builds, auditor=auditor)
    assert before_first_event == len(builds) == 1


def test_a_native_fleet_builds_no_pool(builds):
    build_cluster(tenant_roster(2), ClusterReplayConfig(n_shards=3, scheme="Native"))
    assert builds == []
    build_cluster(tenant_roster(2), ClusterReplayConfig(n_shards=3, scheme="EDC"))
    assert len(builds) == 3


class TestContentStore:
    def test_the_hash_needs_no_pool(self, builds):
        store = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
        store.block_id(12345, 3)
        store.run_ids(0, 4, versions=[0, 1, 2, 3])
        assert builds == []

    @pytest.mark.parametrize("read", [
        lambda s: s.block_for(4096),
        lambda s: s.kind_of_id(3),
        lambda s: s.data_for_run((1, 2)),
    ], ids=["block_for", "kind_of_id", "data_for_run"])
    def test_the_first_read_builds_once(self, builds, read):
        store = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
        eager = _build_pool.__wrapped__(*store._key)
        read(store)
        read(store)
        assert len(builds) == 1
        assert (store._pool, store._pool_kind) == eager

    def test_a_held_pool_survives_cache_eviction(self, builds):
        store = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
        block = store.block_for(0)
        _build_pool.cache_clear()
        assert store.block_for(0) is block
        assert store.kind_of_id(0)
        assert len(builds) == 1

    def test_other_missing_attributes_still_raise(self):
        store = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
        with pytest.raises(AttributeError):
            store.no_such_attribute
