"""A request costs its four fields, and a replay keeps one copy of a trace.

``IORequest`` is a slotted frozen dataclass with a hand-written
constructor; ``replay()`` folds each request as it arrives instead of
building a folded copy of the trace; ``LatencyRecorder`` keeps its
samples as C doubles.  These tests pin the memory contract (how many
requests a replay keeps alive), the request contract the rest of the
stack relies on, the one fold function, and the recorder's samples.
"""

import copy
import dataclasses
import functools
import gc
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.experiments import ReplayConfig, replay
from repro.cluster import ClusterReplayConfig, TenantSpec, build_cluster
from repro.sim.metrics import APPROX_THRESHOLD, LatencyRecorder
from repro.traces.model import IORequest, READ, Trace, WRITE, fold_request
from repro.traces.workloads import make_workload

BLOCK = 4096


def live_requests():
    gc.collect()
    return sum(type(o) is IORequest for o in gc.get_objects())


class TestRetention:
    def test_replay_holds_one_copy_of_the_trace(self):
        trace = make_workload("Prxy_0", max_requests=4000, seed=42)
        probes = []

        def on_built(sim, device, backend, devices):
            def probe():
                probes.append((live_requests(), device.outstanding))

            middle = trace[len(trace) // 2].time
            sim.schedule_at(middle, probe, daemon=True)

        # The trace's requests, plus any an earlier test left alive.
        before = live_requests()
        result = replay(
            trace, "Native", ReplayConfig(capacity_mb=16, fold_fraction=0.6),
            on_built=on_built,
        )
        assert result.n_requests == len(trace) == 4000
        [(alive, outstanding)] = probes
        # Beyond the caller's trace, only the folded requests still in
        # flight; a folded copy of the whole trace would add len(trace).
        assert alive - before <= outstanding < len(trace)


class TestRequestContract:
    def test_frozen(self):
        r = IORequest(0.5, WRITE, 4096, 8192)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.lba = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.time = 1.0

    def test_slotted_dataclass(self):
        r = IORequest(0.5, WRITE, 4096, 8192)
        assert not hasattr(r, "__dict__")
        assert dataclasses.is_dataclass(IORequest)
        assert [f.name for f in dataclasses.fields(IORequest)] == [
            "time", "op", "lba", "nbytes",
        ]
        assert repr(r) == "IORequest(time=0.5, op='W', lba=4096, nbytes=8192)"

    def test_keywords(self):
        r = IORequest(time=1.0, op=READ, lba=0, nbytes=512)
        assert (r.time, r.op, r.lba, r.nbytes) == (1.0, READ, 0, 512)
        assert r.is_read and not r.is_write and r.end == 512

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)),
        copy.copy,
        copy.deepcopy,
    ])
    def test_copies_round_trip_the_fields(self, clone):
        r = IORequest(2.25, READ, 8192, 4096)
        c = clone(r)
        assert type(c) is IORequest and c is not r
        assert dataclasses.astuple(c) == dataclasses.astuple(r)

    def test_identity_equality(self):
        a = IORequest(0.0, WRITE, 0, 4096)
        b = IORequest(0.0, WRITE, 0, 4096)
        assert a == a and a != b
        assert hash(a) == hash(a) and hash(a) != hash(b)
        assert len({a, b}) == 2

    @pytest.mark.parametrize("fields, message", [
        ((-1.0, WRITE, 0, 1), "timestamp must be >= 0: -1.0"),
        ((math.nan, WRITE, 0, 1), "timestamp must be >= 0: nan"),
        ((0.0, "X", 0, 1), "op must be 'R' or 'W', got 'X'"),
        ((0.0, READ, -4096, 1), "negative LBA: -4096"),
        ((0.0, READ, 0, 0), "request size must be positive: 0"),
        ((0.0, READ, 0, -5), "request size must be positive: -5"),
    ])
    def test_invalid_field_messages(self, fields, message):
        with pytest.raises(ValueError) as info:
            IORequest(*fields)
        assert str(info.value) == message


requests = st.builds(
    IORequest,
    st.floats(0, 1e4, allow_nan=False),
    st.sampled_from([READ, WRITE]),
    st.integers(0, 1 << 34),
    st.integers(1, 1 << 20),
)


@functools.lru_cache(maxsize=1)
def two_tenant_cluster():
    return build_cluster(
        [TenantSpec("a"), TenantSpec("b")],
        ClusterReplayConfig(
            n_shards=2, capacity_mb=16, namespace_bytes=BLOCK * 64 * 4,
            range_blocks=64,
        ),
    ).cluster


class TestOneFold:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(requests, max_size=20),
        st.integers(1, 256),
        st.sampled_from([512, BLOCK]),
    )
    def test_scaled_addresses_maps_the_fold(self, reqs, nblocks, block):
        max_bytes = nblocks * block
        trace = Trace("t", sorted(reqs, key=lambda r: r.time))
        folded = trace.scaled_addresses(max_bytes, block)
        assert len(folded) == len(trace)
        for original, got in zip(trace, folded):
            want = fold_request(original, max_bytes, block)
            assert dataclasses.astuple(got) == dataclasses.astuple(want)
            assert 0 <= got.lba and got.end <= max_bytes
            assert got.lba % block == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(requests, min_size=1, max_size=20))
    def test_globalize_is_the_fold_plus_the_tenant_offset(self, reqs):
        c = two_tenant_cluster()
        ns = c.namespace_bytes
        for tenant in ("a", "b"):
            offset = c.tenant_index(tenant) * ns
            for r in reqs:
                g = c.globalize(tenant, r)
                want = fold_request(r, ns, c.block_size)
                assert (g.time, g.op, g.lba - offset, g.nbytes) == (
                    dataclasses.astuple(want)
                )


class TestSamples:
    @pytest.mark.parametrize(
        "n", [1, APPROX_THRESHOLD, APPROX_THRESHOLD + 1, 3 * APPROX_THRESHOLD]
    )
    def test_samples_are_the_added_doubles(self, n):
        rng = np.random.default_rng(n)
        values = rng.exponential(1e-3, size=n).tolist()
        values[0] = 0  # an int sample is stored as a double
        rec = LatencyRecorder()
        for v in values:
            rec.add(v)
        got = rec.samples()
        assert got.dtype == np.float64
        assert got.tolist() == [float(v) for v in values]
        assert rec.count == n and rec.uses_approx == (n > APPROX_THRESHOLD)
        assert rec.percentile(50) >= 0
        # a copy: later samples do not reach it, and neither it nor a
        # percentile query pins the recorder's storage
        rec.add(1.0)
        assert got.size == n and rec.samples().size == n + 1
