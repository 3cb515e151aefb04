"""Tests for the energy model (§VI #3) and endurance projection (§VI #4).

The endurance projection is the SMART page's
(:func:`~repro.flash.introspect.smart_snapshot`): its lifetime and DWPD
are exercised here on a 16-block SSD whose FTL is worn directly.
"""

import math

import pytest

from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.policy import NativePolicy
from repro.energy import POWER, EnergyModel, EnergyReport
from repro.flash.geometry import NandGeometry
from repro.flash.introspect import PE_LIMITS, smart_snapshot
from repro.flash.ssd import SimulatedSSD
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator
from repro.telemetry import DeviceHealth

GEOMETRY = NandGeometry(page_size=4096, pages_per_block=8, nblocks=16,
                        op_ratio=0.25)


def _worn_device(extent_size=4096, writes=400, cold=0):
    """A device over a 16-block SSD after ``writes`` overwrites of eight
    hot keys of ``extent_size`` bytes, interleaved with ``cold`` keys
    written once (live data GC must relocate)."""
    sim = Simulator()
    ssd = SimulatedSSD(sim, geometry=GEOMETRY)
    dev = EDCBlockDevice(sim, ssd, NativePolicy(),
                         ContentStore(ENTERPRISE_MIX, pool_blocks=16),
                         EDCConfig())
    for i in range(writes):
        ssd.ftl.write(i % 8, extent_size)
        if i < cold:
            ssd.ftl.write(("cold", i), extent_size)
    return dev, ssd.ftl


class TestPowerParams:
    def test_defaults_x25e_like(self):
        assert POWER.device_active_w > POWER.device_idle_w
        assert EnergyModel().params is POWER


class TestEnergyModel:
    def test_from_times_basic(self):
        m = EnergyModel()
        r = m.from_times(horizon_s=100.0, cpu_busy_s=10.0,
                         device_busy_s=[20.0], logical_bytes=1 << 30)
        # 22 W x 10 s CPU, 2.4 W x 20 s active, 0.06 W x 80 s idle
        assert r.cpu_joules == pytest.approx(220.0)
        assert r.device_active_joules == pytest.approx(48.0)
        assert r.device_idle_joules == pytest.approx(4.8)
        assert r.total_joules == pytest.approx(272.8)
        assert r.active_joules == pytest.approx(268.0)
        assert r.joules_per_gb == pytest.approx(268.0)

    def test_multiple_devices(self):
        m = EnergyModel()
        r = m.from_times(10.0, 0.0, [2.0, 3.0, 1.0])
        assert r.device_active_joules == pytest.approx(6.0 * m.params.device_active_w)
        assert r.device_idle_joules == pytest.approx(24.0 * m.params.device_idle_w)

    def test_vs_baseline(self):
        m = EnergyModel()
        a = m.from_times(10.0, 1.0, [1.0])
        b = m.from_times(10.0, 2.0, [2.0])
        assert b.vs(a) == pytest.approx(2.0)

    def test_validation(self):
        m = EnergyModel()
        with pytest.raises(ValueError):
            m.from_times(-1.0, 0.0, [])
        with pytest.raises(ValueError):
            m.from_times(1.0, 2.0, [])  # cpu busy > horizon

    def test_measure_from_replay(self):
        from repro.core.config import EDCConfig
        from repro.core.device import EDCBlockDevice
        from repro.core.policy import FixedPolicy
        from repro.flash.geometry import x25e_like
        from repro.flash.ssd import SimulatedSSD
        from repro.sdgen.datasets import ENTERPRISE_MIX
        from repro.sdgen.generator import ContentStore
        from repro.sim.engine import Simulator
        from repro.traces.model import IORequest

        sim = Simulator()
        ssd = SimulatedSSD(sim, geometry=x25e_like(32))
        dev = EDCBlockDevice(
            sim, ssd, FixedPolicy("gzip"),
            ContentStore(ENTERPRISE_MIX, pool_blocks=16),
            EDCConfig(sd_enabled=False),
        )
        for i in range(10):
            sim.schedule_at(i * 0.001, lambda i=i: dev.submit(
                IORequest(i * 0.001, "W", i * 4096, 4096)))
        sim.run(); dev.flush(); sim.run()
        report = EnergyModel().measure(dev, [ssd], horizon_s=sim.now)
        assert report.cpu_joules > 0          # gzip work happened
        assert report.device_active_joules > 0
        assert report.logical_bytes == 10 * 4096


class TestEnduranceModel:
    def test_cell_types(self):
        assert PE_LIMITS["SLC"] > PE_LIMITS["MLC"] > PE_LIMITS["TLC"]
        dev, _ = _worn_device()
        with pytest.raises(ValueError, match="unknown cell type 'QLC'"):
            smart_snapshot(dev, 100.0, "QLC")

    def test_report_fields(self):
        dev, _ = _worn_device()
        snap = smart_snapshot(dev, 100.0)
        assert snap.total_erases > 0
        assert snap.wear_max >= 1
        assert snap.write_amplification >= 1.0
        assert 0 < snap.wear_fraction < 1
        assert snap.projected_lifetime_seconds > 0

    def test_no_wear_infinite_lifetime(self):
        dev, _ = _worn_device(writes=1)
        snap = smart_snapshot(dev, 10.0)
        assert snap.wear_max == 0
        assert snap.projected_lifetime_seconds == float("inf")

    def test_compression_extends_lifetime(self):
        """§III-A: fewer stored bytes -> fewer erases -> longer life."""
        raw = smart_snapshot(_worn_device(extent_size=4096)[0], 100.0, "MLC")
        comp = smart_snapshot(_worn_device(extent_size=2048)[0], 100.0, "MLC")
        assert comp.total_erases < raw.total_erases
        assert comp.projected_lifetime_seconds > raw.projected_lifetime_seconds

    def test_mlc_wears_faster_than_slc(self):
        dev, _ = _worn_device()
        slc = smart_snapshot(dev, 100.0, "SLC")
        mlc = smart_snapshot(dev, 100.0, "MLC")
        assert mlc.wear_fraction > slc.wear_fraction
        assert mlc.projected_lifetime_seconds < slc.projected_lifetime_seconds

    def test_dwpd(self):
        dev, _ = _worn_device()
        assert smart_snapshot(dev, 100.0).drive_writes_per_day > 0


class TestEnduranceEdgeCases:
    def test_negative_horizon_rejected(self):
        dev, _ = _worn_device()
        with pytest.raises(ValueError, match="horizon"):
            smart_snapshot(dev, -1.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        # On a worn device an infinite horizon makes the erase rate zero
        # (a division by zero) and NaN projects a NaN lifetime; both are
        # refused, through DeviceHealth.smart too.
        dev, _ = _worn_device()
        with pytest.raises(ValueError, match="horizon"):
            smart_snapshot(dev, horizon)
        health = DeviceHealth()
        health.bind_device(dev)
        with pytest.raises(ValueError, match="horizon"):
            health.smart(horizon)

    def test_dwpd_falls_with_write_amplification(self):
        """Same budget, higher WA -> fewer host writes per day."""
        lo = smart_snapshot(_worn_device()[0], 100.0)
        hi = smart_snapshot(_worn_device(cold=80)[0], 100.0)
        assert lo.write_amplification == 1.0 < hi.write_amplification
        assert hi.drive_writes_per_day < lo.drive_writes_per_day
        assert hi.drive_writes_per_day * hi.write_amplification == (
            pytest.approx(lo.drive_writes_per_day)
        )

    def test_retired_blocks_leave_wear_statistics(self):
        """A dead block must not bound the lifetime projection."""
        dev, ftl = _worn_device()
        worst = max(ftl.collector.stats.erase_counts,
                    key=ftl.collector.stats.erase_counts.get)
        before = smart_snapshot(dev, 100.0)
        ftl.retire_block(worst)
        after = smart_snapshot(dev, 100.0)
        assert after.wear_max <= before.wear_max
        assert worst not in ftl.collector.stats.erase_counts

    def test_report_matches_smart_snapshot_inputs(self):
        """The SMART page's wear and WA are the FTL's own counters."""
        dev, ftl = _worn_device()
        snap = smart_snapshot(dev, 50.0, "TLC")
        assert snap.pe_limit == PE_LIMITS["TLC"]
        counts = ftl.collector.stats.erase_counts
        assert snap.total_erases == sum(counts.values())
        assert snap.wear_max == max(counts.values())
        assert snap.write_amplification == ftl.stats.write_amplification()
