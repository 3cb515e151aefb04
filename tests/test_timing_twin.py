"""Every Native response on one SSD against Lindley's recursion.

``tests/reference_timing.py`` computes each request's response from the
folded trace alone (one FIFO server, the SSD's linear service times and
a block -> extent map for read splitting).  The whole stack, event
engine, device, FTL and queue included, must give the same float for
every request: the four canonical traces at 4,000 requests, and random
small synthetic traces.  Both halves run with garbage collection idle,
which the recursion does not model; each replay asserts zero GC stall.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.experiments import ReplayConfig, replay
from repro.traces.synthetic import BurstModel, SyntheticTraceGenerator, WorkloadParams
from repro.traces.workloads import make_workload
from tests import reference_timing

BLOCK = 4096


def replayed_responses(trace, cfg):
    """``((time, op, lba, nbytes), response)`` per request, in completion
    order, from a Native replay through the whole stack."""
    got = []

    def on_built(sim, device, backend, devices):
        device.on_request_complete = lambda req, resp: got.append(
            ((req.time, req.op, req.lba, req.nbytes), resp)
        )

    result = replay(trace, "Native", cfg, on_built=on_built)
    assert result.gc_stall_time == 0.0
    return got


@pytest.mark.parametrize("name", ["Fin1", "Fin2", "Usr_0", "Prxy_0"])
def test_canonical_traces_match_the_recursion(name):
    trace = make_workload(name, max_requests=4000, seed=42)
    cfg = ReplayConfig()
    got = replayed_responses(trace, cfg)
    want = reference_timing.native_responses(trace, cfg)
    assert len(got) == len(trace)
    assert got == want


sizes = st.lists(
    st.integers(1, 16).map(lambda k: 512 * k), min_size=1, max_size=4, unique=True
).map(lambda vs: tuple((v, 1.0 / len(vs)) for v in vs))


@st.composite
def workloads(draw):
    """Small traces: bursts fast enough to queue, address spaces a few
    blocks wide so reads split across partly overwritten extents."""
    return WorkloadParams(
        name="w",
        read_ratio=draw(st.floats(0.0, 1.0)),
        size_dist=draw(sizes),
        write_seq_prob=draw(st.floats(0.0, 1.0)),
        read_seq_prob=draw(st.floats(0.0, 1.0)),
        burst=BurstModel(
            on_iops=draw(st.floats(100.0, 20000.0)),
            off_iops=draw(st.sampled_from([0.0, 50.0])),
            on_duration_mean=draw(st.floats(0.001, 0.1)),
            off_duration_mean=draw(st.floats(0.001, 0.1)),
        ),
        address_space=BLOCK * draw(st.one_of(st.integers(1, 32), st.just(1 << 18))),
        hot_fraction=draw(st.floats(0.01, 1.0)),
        hot_weight=draw(st.floats(0.0, 1.0)),
        block=BLOCK,
    )


@settings(max_examples=60, deadline=None)
@given(workloads(), st.integers(0, 2**32 - 1), st.integers(1, 200))
def test_synthetic_traces_match_the_recursion(params, seed, n):
    trace = SyntheticTraceGenerator(params, seed).generate(max_requests=n)
    cfg = ReplayConfig(capacity_mb=16)
    assert replayed_responses(trace, cfg) == reference_timing.native_responses(
        trace, cfg
    )
