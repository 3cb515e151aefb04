"""Property-based end-to-end tests of the EDC device.

Hypothesis generates arbitrary request schedules; every replay must
terminate with zero outstanding requests, verified reads, and
self-consistent accounting — across policies, with and without the
Sequentiality Detector.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.policy import ElasticPolicy, FixedPolicy, NativePolicy
from repro.core.replay import TraceReplayer
from repro.flash.geometry import x25e_like
from repro.flash.ssd import SimulatedSSD
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator
from repro.traces.model import IORequest, Trace

# One shared content store: pool generation is the expensive part.
_CONTENT_ARGS = dict(pool_blocks=32, seed=7)


requests_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.2, allow_nan=False),  # gap
        st.booleans(),                                             # is read
        st.integers(min_value=0, max_value=50),                    # block
        st.integers(min_value=1, max_value=4),                     # blocks
    ),
    min_size=1,
    max_size=60,
)


def build_trace(rows):
    reqs = []
    t = 0.0
    for gap, is_read, block, nblocks in rows:
        t += gap
        reqs.append(
            IORequest(t, "R" if is_read else "W", block * 4096, nblocks * 4096)
        )
    return Trace("prop", reqs)


def run(rows, policy, sd):
    sim = Simulator()
    ssd = SimulatedSSD(sim, geometry=x25e_like(32))
    content = ContentStore(ENTERPRISE_MIX, **_CONTENT_ARGS)
    cfg = EDCConfig(sd_enabled=sd, verify_reads=True)
    dev = EDCBlockDevice(sim, ssd, policy, content, cfg)
    TraceReplayer(sim, dev).replay(build_trace(rows))
    return dev, ssd


class TestDeviceProperties:
    @given(requests_strategy)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_edc_with_sd_always_completes_and_verifies(self, rows):
        dev, ssd = run(rows, ElasticPolicy(), sd=True)
        n_writes = sum(1 for _, is_read, _, _ in rows if not is_read)
        n_reads = len(rows) - n_writes
        assert dev.write_latency.count == n_writes
        assert dev.read_latency.count == n_reads
        # Accounting invariants.
        assert dev.stats.stored_bytes <= dev.stats.logical_bytes or n_writes == 0
        assert dev.stats.compression_ratio >= 1.0 or n_writes == 0
        dev.mapping.check_invariants()
        ssd.ftl.check_invariants()

    @given(requests_strategy)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fixed_gzip_always_completes(self, rows):
        dev, ssd = run(rows, FixedPolicy("gzip"), sd=False)
        assert dev.stats.compression_ratio >= 1.0
        ssd.ftl.check_invariants()

    @given(requests_strategy)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_native_stores_exactly_logical_bytes(self, rows):
        dev, _ = run(rows, NativePolicy(), sd=False)
        assert dev.stats.stored_bytes == dev.stats.logical_bytes

    @given(requests_strategy)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mapping_and_allocator_agree(self, rows):
        dev, _ = run(rows, ElasticPolicy(), sd=True)
        # Every mapping entry owns exactly one live allocator slot.
        assert dev.allocator.live_slots == len(dev.mapping)
        for eid in dev.mapping.entry_ids():
            assert dev.allocator.lookup(eid) is not None

    @given(requests_strategy, st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_determinism_across_runs(self, rows, _salt):
        a_dev, _ = run(rows, ElasticPolicy(), sd=True)
        b_dev, _ = run(rows, ElasticPolicy(), sd=True)
        assert a_dev.mean_response_time() == b_dev.mean_response_time()
        assert a_dev.stats.stored_bytes == b_dev.stats.stored_bytes
