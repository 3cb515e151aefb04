"""Tests for the simulated HDD backend (§VI future work #2)."""

import pytest

from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.policy import ElasticPolicy
from repro.flash.hdd import HddTiming, SimulatedHDD
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator
from repro.traces.model import IORequest


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def hdd(sim):
    return SimulatedHDD(sim)


class TestTiming:
    def test_half_rotation(self):
        t = HddTiming(rpm=7200)
        assert t.half_rotation_s == pytest.approx(60.0 / 7200 / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            HddTiming(avg_seek_s=-1)
        with pytest.raises(ValueError):
            HddTiming(rpm=0)

    def test_random_4k_in_ms_range(self, hdd):
        # Random small I/O on a 7200rpm disk: ~10-15 ms.
        t = hdd.service_read_time(4096)
        assert 0.008 < t < 0.020

    def test_reads_and_writes_symmetric(self, hdd):
        assert hdd.service_read_time(4096) == hdd.service_write_time(4096)


class TestHeadModel:
    def test_random_access_pays_seek(self, sim, hdd):
        done = []
        hdd.submit_write(0, 4096, on_complete=lambda: done.append(sim.now))
        hdd.submit_write(10 * 1024 * 1024, 4096, on_complete=lambda: done.append(sim.now))
        sim.run()
        assert hdd.stats.seeks == 2
        assert hdd.stats.sequential_hits == 0

    def test_sequential_access_streams(self, sim, hdd):
        hdd.submit_write(0, 4096)
        hdd.submit_write(4096, 4096)  # head is already there
        hdd.submit_write(8192, 4096)
        sim.run()
        assert hdd.stats.seeks == 1
        assert hdd.stats.sequential_hits == 2

    def test_sequential_much_faster_than_random(self, sim, hdd):
        done = []
        hdd.submit_write(0, 4096, on_complete=lambda: done.append(sim.now))
        hdd.submit_write(4096, 4096, on_complete=lambda: done.append(sim.now))
        sim.run()
        first = done[0]
        second = done[1] - done[0]
        assert second < first / 5

    def test_merged_write_cheaper_than_scattered(self, sim):
        merged = SimulatedHDD(sim, name="m")
        done_m = []
        merged.submit_write(0, 16384, on_complete=lambda: done_m.append(sim.now))
        sim.run()
        sim2 = Simulator()
        scattered = SimulatedHDD(sim2, name="s")
        done_s = []
        for i in range(4):
            scattered.submit_write(
                i * 10_000_000, 4096, on_complete=lambda: done_s.append(sim2.now)
            )
        sim2.run()
        assert done_m[0] < done_s[-1] / 3

    def test_trim_is_noop(self, hdd):
        assert hdd.trim("anything") is False


class TestEdcOnHdd:
    def test_full_stack_runs_on_rust(self):
        """The paper's future-work scenario: EDC over an HDD, unchanged."""
        sim = Simulator()
        hdd = SimulatedHDD(sim)
        content = ContentStore(ENTERPRISE_MIX, pool_blocks=32, seed=1)
        cfg = EDCConfig(verify_reads=True)
        dev = EDCBlockDevice(sim, hdd, ElasticPolicy(), content, cfg)
        reqs = [IORequest(i * 0.002, "W", i * 4096, 4096) for i in range(20)]
        reqs.append(IORequest(0.2, "R", 0, 8 * 4096))
        for r in reqs:
            sim.schedule_at(r.time, lambda q=r: dev.submit(q))
        sim.run()
        dev.flush()
        sim.run()
        assert dev.outstanding == 0
        assert dev.stats.writes > 0
        assert hdd.stats.bytes_written <= 20 * 4096  # compression shrank it
