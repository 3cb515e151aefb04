"""Tests for the TraceReplayer driver."""

import pytest

from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.policy import FixedPolicy
from repro.core.replay import ReplayError, TraceReplayer
from repro.flash.geometry import x25e_like
from repro.flash.ssd import SimulatedSSD
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator
from repro.traces.model import IORequest, Trace


def setup():
    sim = Simulator()
    ssd = SimulatedSSD(sim, geometry=x25e_like(32))
    content = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
    dev = EDCBlockDevice(sim, ssd, FixedPolicy("lzf"), content, EDCConfig(sd_enabled=False))
    return sim, dev


def trace(n=5):
    return Trace("t", [IORequest(i * 0.01, "W", i * 4096, 4096) for i in range(n)])


class TestReplayer:
    def test_replay_outcome(self):
        sim, dev = setup()
        assert TraceReplayer(sim, dev).replay(trace(5)) is None
        assert dev.write_latency.count == 5
        assert sim.now >= 0.04
        assert dev.mean_response_time() > 0
        assert dev.stats.compression_ratio >= 1.0

    def test_schedule_multiple_traces(self):
        sim, dev = setup()
        rep = TraceReplayer(sim, dev)
        rep.schedule(trace(3))
        rep.schedule(Trace("t2", [IORequest(0.5, "R", 0, 4096)]))
        rep.run()
        assert dev.write_latency.count + dev.read_latency.count == 4
        assert dev.read_latency.mean() > 0

    def test_mismatched_simulator_rejected(self):
        sim, dev = setup()
        with pytest.raises(ValueError):
            TraceReplayer(Simulator(), dev)

    def test_empty_trace(self):
        sim, dev = setup()
        TraceReplayer(sim, dev).replay(Trace("empty", []))
        assert dev.write_latency.count + dev.read_latency.count == 0
        assert dev.mean_response_time() == 0.0

    def test_matches_manual_loop(self):
        sim1, dev1 = setup()
        TraceReplayer(sim1, dev1).replay(trace(8))
        sim2, dev2 = setup()
        for req in trace(8):
            sim2.schedule_at(req.time, lambda r=req: dev2.submit(r))
        sim2.run()
        dev2.flush()
        sim2.run()
        assert dev1.mean_response_time() == pytest.approx(dev2.mean_response_time())
