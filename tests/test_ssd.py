"""Tests for the simulated SSD device model."""

import pytest

from repro.faults.plan import DeviceFailedError
from repro.flash.geometry import NandGeometry, NandTiming, x25e_like
from repro.flash.ssd import DeviceStats, SimulatedSSD
from repro.sim.engine import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def ssd(sim):
    return SimulatedSSD(sim, geometry=x25e_like(32))


class TestServiceTimes:
    def test_write_linear_in_size(self, ssd):
        """Paper Fig 1: response time grows linearly with request size."""
        t4 = ssd.service_write_time(4096)
        t8 = ssd.service_write_time(8192)
        t12 = ssd.service_write_time(12288)
        assert (t8 - t4) == pytest.approx(t12 - t8)
        assert t12 > t8 > t4

    def test_read_linear_in_size(self, ssd):
        t4 = ssd.service_read_time(4096)
        t8 = ssd.service_read_time(8192)
        assert t8 - t4 == pytest.approx(4096 / ssd.timing.read_bytes_per_s)

    def test_zero_byte_costs_overhead_only(self, ssd):
        assert ssd.service_write_time(0) == pytest.approx(ssd.timing.write_overhead_s)
        assert ssd.service_read_time(0) == pytest.approx(ssd.timing.read_overhead_s)

    def test_negative_size_rejected(self, ssd):
        with pytest.raises(ValueError):
            ssd.service_read_time(-1)
        with pytest.raises(ValueError):
            ssd.service_write_time(-1)

    def test_write_slower_than_read(self, ssd):
        assert ssd.service_write_time(4096) > ssd.service_read_time(4096)


class TestSubmission:
    def test_write_completes(self, sim, ssd):
        done = []
        ssd.submit_write(0, 4096, on_complete=lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(ssd.service_write_time(4096))]

    def test_read_completes(self, sim, ssd):
        done = []
        ssd.submit_read(0, 4096, on_complete=lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(ssd.service_read_time(4096))]

    def test_queueing_serialises_requests(self, sim, ssd):
        done = []
        for i in range(3):
            ssd.submit_write(i * 4096, 4096, on_complete=lambda: done.append(sim.now))
        sim.run()
        svc = ssd.service_write_time(4096)
        assert done == [pytest.approx(svc * (k + 1)) for k in range(3)]

    def test_read_queued_before_failure_fails_on_completion(self, sim, ssd):
        assert ssd.injector is None
        done, errors = [], []
        ssd.submit_read(0, 4096, on_complete=lambda: done.append(1),
                        on_error=errors.append)
        ssd.fail_now()
        sim.run()
        assert done == []
        assert len(errors) == 1 and isinstance(errors[0], DeviceFailedError)

    def test_refused_io_is_not_counted(self, sim, ssd):
        ssd.fail_now()
        errors = []
        ssd.submit_read(0, 4096, on_error=errors.append)
        ssd.submit_write(0, 4096, on_error=errors.append)
        sim.run()
        assert [type(e) for e in errors] == [DeviceFailedError] * 2
        assert ssd.stats == DeviceStats()

    def test_read_of_unwritten_key_allowed(self, sim, ssd):
        done = []
        ssd.submit_read(12345, 4096, on_complete=lambda: done.append(1))
        sim.run()
        assert done == [1]

    def test_stats_counters(self, sim, ssd):
        ssd.submit_write(0, 4096)
        ssd.submit_read(0, 2048)
        sim.run()
        assert ssd.stats.writes == 1
        assert ssd.stats.reads == 1
        assert ssd.stats.bytes_written == 4096
        assert ssd.stats.bytes_read == 2048

    def test_default_key_is_lba(self, sim, ssd):
        ssd.submit_write(8192, 1000)
        sim.run()
        assert ssd.ftl.extent_size(8192) is not None

    def test_explicit_key(self, sim, ssd):
        ssd.submit_write(0, 1000, key="mykey")
        sim.run()
        assert ssd.ftl.extent_size("mykey") is not None
        assert ssd.ftl.extent_size(0) is None

    def test_trim(self, sim, ssd):
        ssd.submit_write(0, 1000, key="k")
        sim.run()
        assert ssd.trim("k")
        assert ssd.ftl.extent_size("k") is None


class TestGcCoupling:
    def test_overwrite_churn_causes_gc_stalls(self, sim):
        geo = NandGeometry(page_size=4096, pages_per_block=8, nblocks=16, op_ratio=0.25)
        ssd = SimulatedSSD(sim, geometry=geo)
        for i in range(200):
            ssd.submit_write((i % 4) * 4096, 4096)
        sim.run()
        assert ssd.stats.gc_stall_time > 0
        assert ssd.write_amplification() >= 1.0

    def test_gc_disabled_charges_no_stall(self, sim):
        geo = NandGeometry(page_size=4096, pages_per_block=8, nblocks=16, op_ratio=0.25)
        ssd = SimulatedSSD(sim, geometry=geo, gc_enabled=False)
        for i in range(200):
            ssd.submit_write((i % 4) * 4096, 4096)
        sim.run()
        assert ssd.stats.gc_stall_time == 0.0

    def test_gc_time_computation(self, ssd):
        from repro.flash.ftl import FlashCost

        t = ssd.gc_time(FlashCost(moved_bytes=8192, erases=1))
        expected = (
            2 * (ssd.timing.t_read_page_us + ssd.timing.t_program_page_us)
            + ssd.timing.t_erase_block_us
        ) * 1e-6
        assert t == pytest.approx(expected)

    def test_gc_time_zero_for_pure_host_write(self, ssd):
        from repro.flash.ftl import FlashCost

        assert ssd.gc_time(FlashCost(host_bytes=4096)) == 0.0


class TestUtilization:
    def test_utilization_reflects_busy_fraction(self, sim, ssd):
        ssd.submit_write(0, 4096)
        sim.run()
        horizon = sim.now
        assert ssd.utilization() == pytest.approx(1.0)
        sim.schedule(horizon, lambda: None)  # idle for the same span again
        sim.run()
        assert ssd.utilization() == pytest.approx(0.5)
