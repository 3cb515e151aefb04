"""A request costs its four fields, a trace its four columns, and a
replay keeps a request object only while it is in flight.

``IORequest`` is a slotted frozen dataclass with a hand-written
constructor; a ``Trace`` is four typed columns that build a request when
a consumer takes one; ``replay()`` builds each request folded as it
arrives instead of building a folded copy of the trace;
``LatencyRecorder`` keeps its samples as C doubles.  These tests pin the
memory contract (what a trace holds, how many requests a replay keeps
alive), the column trace against the list of requests it replaced, the
request contract the rest of the stack relies on, the one fold function,
and the recorder's samples.
"""

import copy
import dataclasses
import functools
import gc
import math
import pickle
import tracemalloc
from array import array
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.experiments import ReplayConfig, replay
from repro.cluster import ClusterReplayConfig, TenantSpec, build_cluster
from repro.sim.metrics import APPROX_THRESHOLD, LatencyRecorder, TimeSeries
from repro.traces.model import (
    IORequest, READ, Trace, TraceStats, WRITE, fold_request,
)
from repro.traces.synthetic import SyntheticTraceGenerator
from repro.traces.workloads import WORKLOADS, make_workload

BLOCK = 4096


def live_requests():
    gc.collect()
    return sum(type(o) is IORequest for o in gc.get_objects())


class TestTraceFootprint:
    def test_a_generated_trace_holds_columns_not_requests(self):
        """The ``native-gc`` benchmark's input: 25 B a request in four
        columns (plus their growth slack), not a request object each."""
        params = dataclasses.replace(WORKLOADS["Prxy_0"], address_space=64 << 20)
        generator = SyntheticTraceGenerator(params, seed=42)
        generator.generate(max_requests=100)  # a first call's lazy imports
        before = live_requests()
        tracemalloc.start()
        try:
            trace = generator.generate(max_requests=26_000)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(trace) == 26_000
        assert live_requests() == before
        assert held / len(trace) <= 32


class TestRetention:
    def test_replay_holds_the_requests_in_flight_only(self):
        before = live_requests()  # any an earlier test left alive
        trace = make_workload("Prxy_0", max_requests=4000, seed=42)
        assert live_requests() == before
        probes = []

        def on_built(sim, device, backend, devices):
            def probe():
                probes.append((live_requests(), device.outstanding))

            middle = trace[len(trace) // 2].time
            sim.schedule_at(middle, probe, daemon=True)

        result = replay(
            trace, "Native", ReplayConfig(capacity_mb=16, fold_fraction=0.6),
            on_built=on_built,
        )
        assert result.n_requests == len(trace) == 4000
        [(alive, outstanding)] = probes
        # Only the folded requests still in flight: a trace of request
        # objects, or a folded copy of one, would add len(trace).
        assert alive - before <= outstanding + 1
        assert outstanding < len(trace)


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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(requests, max_size=20))
    def test_a_fleet_arrival_is_built_global(self, reqs):
        """``ClusterReplayer`` builds each arrival by ``Trace.folded`` at
        the tenant's offset: the request ``globalize`` would build."""
        c = two_tenant_cluster()
        trace = Trace("t", reqs)
        for tenant in ("a", "b"):
            built = trace.folded(c.namespace_bytes, c.block_size, c.tenant_offset(tenant))
            assert rows(built) == rows(c.globalize(tenant, r) for r in trace)


class ListTrace:
    """The oracle: ``Trace`` as it stood when it kept a list of requests."""

    def __init__(self, name, requests):
        self.name = name
        self.requests = list(requests)
        if any(
            self.requests[i].time > self.requests[i + 1].time
            for i in range(len(self.requests) - 1)
        ):
            self.requests.sort(key=lambda r: r.time)

    @property
    def duration(self):
        return self.requests[-1].time if self.requests else 0.0

    def head(self, n):
        return ListTrace(self.name, self.requests[:n])

    def scaled_addresses(self, max_bytes, block=4096):
        return ListTrace(
            self.name, [fold_request(r, max_bytes, block) for r in self.requests]
        )

    def stats(self, block=4096):
        reqs = self.requests
        n = len(reqs)
        if n == 0:
            return TraceStats(self.name, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0)
        sizes = np.array([r.nbytes for r in reqs], dtype=np.float64)
        is_read = np.array([r.is_read for r in reqs], dtype=bool)
        reads = int(is_read.sum())
        writes = n - reads
        duration = max(self.duration, 1e-9)
        footprint = set()
        sequential = 0
        prev_end: Optional[int] = None
        for r in reqs:
            for blk in range(r.lba // block, (r.end + block - 1) // block):
                footprint.add(blk)
            if prev_end is not None and r.lba == prev_end:
                sequential += 1
            prev_end = r.end
        return TraceStats(
            self.name, n, reads, writes, reads / n, duration, n / duration,
            float(sizes.mean()),
            float(sizes[is_read].mean()) if reads else 0.0,
            float(sizes[~is_read].mean()) if writes else 0.0,
            len(footprint), sequential / n,
        )

    def intensity_series(self, bin_width=1.0, page=4096):
        ts = TimeSeries(bin_width)
        for r in self.requests:
            ts.add(r.time, max(1, (r.nbytes + page - 1) // page))
        return ts.rates()


def rows(requests):
    return [dataclasses.astuple(r) for r in requests]


def columns(requests):
    """The four columns a producer would fill for ``requests``."""
    return (
        array("d", [r.time for r in requests]),
        bytearray(r.op == WRITE for r in requests),
        array("q", [r.lba for r in requests]),
        array("q", [r.nbytes for r in requests]),
    )


#: unsorted, with ties (the sort must be stable), and 512-aligned sizes
#: mixed with odd ones so folds clamp and pages round
column_requests = st.builds(
    IORequest,
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.floats(0, 20, allow_nan=False)),
    st.sampled_from([READ, WRITE]),
    st.one_of(st.integers(0, 64).map(lambda k: k * 512), st.integers(0, 1 << 34)),
    st.one_of(st.integers(1, 16).map(lambda k: k * 512), st.integers(1, 1 << 20)),
)


class TestColumnsAgainstTheListOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(column_requests, max_size=40),
        st.integers(-5, 45),
        st.integers(1, 64),
        st.sampled_from([512, BLOCK]),
        st.sampled_from([0.25, 1.0]),
    )
    def test_every_view_equals_the_oracle(self, reqs, n_head, nblocks, block, bin_width):
        oracle = ListTrace("t", reqs)
        packed = Trace("t", reqs)
        for trace in (packed, Trace.from_columns("t", *columns(reqs))):
            assert len(trace) == len(oracle.requests)
            assert rows(trace) == rows(oracle.requests)
            n = len(trace)
            for i in range(-n, n):
                assert dataclasses.astuple(trace[i]) == dataclasses.astuple(oracle.requests[i])
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    trace[i]
            assert rows(trace.head(n_head)) == rows(oracle.head(n_head).requests)
            max_bytes = nblocks * block
            folded = oracle.scaled_addresses(max_bytes, block).requests
            assert rows(trace.scaled_addresses(max_bytes, block)) == rows(folded)
            assert rows(trace.folded(max_bytes, block)) == rows(folded)
            assert trace.duration == oracle.duration
            assert trace.stats() == oracle.stats()
            assert trace.stats(512) == oracle.stats(512)
            got_t, got_r = trace.intensity_series(bin_width)
            want_t, want_r = oracle.intensity_series(bin_width)
            assert list(got_t) == list(want_t) and list(got_r) == list(want_r)

    def test_each_iteration_builds_new_requests(self):
        trace = Trace("t", [IORequest(0.0, WRITE, 0, 512), IORequest(1.0, READ, 512, 512)])
        first, again = list(trace), list(trace)
        assert rows(first) == rows(again)
        assert all(a is not b for a, b in zip(first, again))
        assert trace[0] is not trace[0]
        assert type(trace[0]) is IORequest
        with pytest.raises(TypeError):
            trace[0:1]  # a slice is head()'s job, not a request

    def test_relabelled_traces_share_the_columns(self):
        trace = make_workload("Fin1", max_requests=50)
        renamed = Trace.from_columns("x", trace.times, trace.writes, trace.lbas, trace.sizes)
        assert renamed.times is trace.times and renamed.sizes is trace.sizes
        assert rows(renamed) == rows(trace)

    @pytest.mark.parametrize("row, message", [
        ((-1.0, 1, 0, 1), "timestamp must be >= 0: -1.0"),
        ((math.nan, 1, 0, 1), "timestamp must be >= 0: nan"),
        ((0.0, 2, 0, 1), "op must be 'R' or 'W', got 2"),
        ((0.0, 0, -4096, 1), "negative LBA: -4096"),
        ((0.0, 0, 0, 0), "request size must be positive: 0"),
    ])
    def test_columns_are_checked_as_requests_are(self, row, message):
        good = (0.0, 1, 0, 512)
        time, write, lba, nbytes = zip(good, row, good)
        with pytest.raises(ValueError) as info:
            Trace.from_columns(
                "t", array("d", time), bytearray(write), array("q", lba), array("q", nbytes),
            )
        assert str(info.value) == message

    def test_columns_of_different_lengths_refused(self):
        with pytest.raises(ValueError, match="column lengths differ"):
            Trace.from_columns("t", array("d", [0.0]), bytearray(), array("q"), array("q"))

    def test_a_bad_fold_is_refused_when_asked_for(self):
        trace = Trace("t", [IORequest(0.0, WRITE, 0, 512)])
        for max_bytes in (0, 1000):
            with pytest.raises(ValueError, match="positive multiple of block"):
                trace.folded(max_bytes)


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
