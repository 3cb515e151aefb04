"""End-to-end data-integrity tests: everything written reads back bit-exact.

These replays run with ``verify_reads`` on, so every read decompresses
the stored payload with the *real* codec and compares it against the
expected content — through policy selection, the gate, the 75 % rule,
merging, size classes, mapping overlays, the FTL and (for the array
case) RAIS5 distribution.
"""

import pytest

from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.policy import ElasticPolicy, FixedPolicy, NativePolicy
from repro.flash.geometry import x25e_like
from repro.flash.raid import RAIS5
from repro.flash.ssd import SimulatedSSD
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator
from repro.traces.model import Trace
from repro.traces.synthetic import BurstModel, SyntheticTraceGenerator, WorkloadParams


def verified_device(sim, policy, backend=None, sd=True):
    if backend is None:
        backend = SimulatedSSD(sim, geometry=x25e_like(64))
    content = ContentStore(ENTERPRISE_MIX, pool_blocks=64, seed=9)
    cfg = EDCConfig(
        sd_enabled=sd, verify_reads=True
    )
    return EDCBlockDevice(sim, backend, policy, content, cfg)


def mixed_trace(n=600, seed=0):
    params = WorkloadParams(
        name="mix",
        read_ratio=0.4,
        size_dist=((4096, 0.5), (8192, 0.3), (16384, 0.2)),
        write_seq_prob=0.5,
        burst=BurstModel(
            on_iops=400.0, off_iops=20.0, on_duration_mean=0.5, off_duration_mean=2.0
        ),
        address_space=1 << 22,  # 4 MB: heavy overwrite churn
    )
    return SyntheticTraceGenerator(params, seed=seed).generate(max_requests=n)


def replay(trace, policy, sd=True, rais=False):
    sim = Simulator()
    if rais:
        devices = [
            SimulatedSSD(sim, name=f"ssd{i}", geometry=x25e_like(32)) for i in range(5)
        ]
        backend = RAIS5(devices)
    else:
        backend = None
    dev = verified_device(sim, policy, backend, sd)
    for req in trace:
        sim.schedule_at(req.time, lambda r=req: dev.submit(r))
    sim.run()
    dev.flush()
    sim.run()
    assert dev.outstanding == 0
    return dev


POLICIES = [
    ("Native", lambda: NativePolicy()),
    ("Lzf", lambda: FixedPolicy("lzf")),
    ("Gzip", lambda: FixedPolicy("gzip")),
    ("Bzip2", lambda: FixedPolicy("bzip2")),
    ("EDC", lambda: ElasticPolicy()),
]


@pytest.mark.parametrize("name,make", POLICIES, ids=[p[0] for p in POLICIES])
def test_integrity_single_ssd(name, make):
    dev = replay(mixed_trace(500), make(), sd=(name == "EDC"))
    assert dev.read_latency.count > 0  # verification actually exercised reads


def test_integrity_edc_on_rais5():
    dev = replay(mixed_trace(400, seed=3), ElasticPolicy(), rais=True)
    assert dev.read_latency.count > 0


def test_integrity_heavy_overwrite_churn():
    """Small address space: every block overwritten many times; GC active."""
    params = WorkloadParams(
        name="churn",
        read_ratio=0.3,
        size_dist=((4096, 1.0),),
        write_seq_prob=0.2,
        burst=BurstModel(
            on_iops=500.0, off_iops=50.0, on_duration_mean=1.0, off_duration_mean=1.0
        ),
        address_space=1 << 20,  # 1 MB = 256 blocks only
    )
    trace = SyntheticTraceGenerator(params, seed=5).generate(max_requests=1500)
    dev = replay(trace, ElasticPolicy())
    assert dev.stats.writes > 0


def test_integrity_merged_runs_with_partial_reads():
    """Write sequential runs (merged), then read individual blocks back."""
    from repro.traces.model import IORequest

    reqs = []
    t = 0.0
    for base in range(0, 64, 8):
        for i in range(8):
            reqs.append(IORequest(t, "W", (base + i) * 4096, 4096))
            t += 1e-5
        t += 0.05
    # read back each block individually
    for blk in range(64):
        reqs.append(IORequest(t, "R", blk * 4096, 4096))
        t += 1e-3
    dev = replay(Trace("merged", reqs), ElasticPolicy())
    assert dev.stats.merged_runs > 0
    assert dev.read_latency.count == 64
