"""Tests for the energy model (§VI #3) and endurance projection (§VI #4)."""

import pytest

from repro.energy import POWER, EnergyModel, EnergyReport
from repro.flash.endurance import EnduranceModel, PE_LIMITS
from repro.flash.ftl import ExtentFTL
from repro.flash.geometry import NandGeometry


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
    def _worn_ftl(self, extent_size=4096, writes=400):
        geo = NandGeometry(page_size=4096, pages_per_block=8, nblocks=16, op_ratio=0.25)
        ftl = ExtentFTL(geo)
        for i in range(writes):
            ftl.write(i % 8, extent_size)
        return geo, ftl

    def test_cell_types(self):
        assert PE_LIMITS["SLC"] > PE_LIMITS["MLC"] > PE_LIMITS["TLC"]
        with pytest.raises(ValueError):
            EnduranceModel("QLC")

    def test_report_fields(self):
        geo, ftl = self._worn_ftl()
        rep = EnduranceModel("SLC").report(ftl, observed_seconds=100.0)
        assert rep.total_erases > 0
        assert rep.max_block_erases >= 1
        assert rep.write_amplification >= 1.0
        assert 0 < rep.wear_fraction < 1
        assert rep.projected_lifetime_seconds > 0

    def test_no_wear_infinite_lifetime(self):
        geo = NandGeometry(page_size=4096, pages_per_block=8, nblocks=16, op_ratio=0.25)
        ftl = ExtentFTL(geo)
        ftl.write("a", 4096)
        rep = EnduranceModel().report(ftl, 10.0)
        assert rep.projected_lifetime_seconds == float("inf")

    def test_compression_extends_lifetime(self):
        """§III-A: fewer stored bytes -> fewer erases -> longer life."""
        _, raw = self._worn_ftl(extent_size=4096)
        _, comp = self._worn_ftl(extent_size=2048)
        m = EnduranceModel("MLC")
        raw_rep = m.report(raw, 100.0)
        comp_rep = m.report(comp, 100.0)
        assert comp_rep.total_erases < raw_rep.total_erases
        assert comp_rep.lifetime_vs(raw_rep) > 1.0

    def test_mlc_wears_faster_than_slc(self):
        _, ftl = self._worn_ftl()
        slc = EnduranceModel("SLC").report(ftl, 100.0)
        mlc = EnduranceModel("MLC").report(ftl, 100.0)
        assert mlc.wear_fraction > slc.wear_fraction
        assert mlc.projected_lifetime_seconds < slc.projected_lifetime_seconds

    def test_dwpd(self):
        geo, ftl = self._worn_ftl()
        m = EnduranceModel("SLC")
        rep = m.report(ftl, 100.0)
        dwpd = m.drive_writes_per_day(geo, rep)
        assert dwpd > 0


class TestEnduranceEdgeCases:
    def _worn_ftl(self, extent_size=4096, writes=400):
        geo = NandGeometry(page_size=4096, pages_per_block=8, nblocks=16,
                           op_ratio=0.25)
        ftl = ExtentFTL(geo)
        for i in range(writes):
            ftl.write(i % 8, extent_size)
        return geo, ftl

    def test_negative_horizon_rejected(self):
        _, ftl = self._worn_ftl()
        with pytest.raises(ValueError):
            EnduranceModel().report(ftl, -1.0)

    def test_lifetime_vs_infinite_cases(self):
        geo, worn = self._worn_ftl()
        fresh = ExtentFTL(geo)
        fresh.write("a", 4096)
        m = EnduranceModel("MLC")
        worn_rep = m.report(worn, 100.0)
        fresh_rep = m.report(fresh, 100.0)
        assert fresh_rep.projected_lifetime_seconds == float("inf")
        assert fresh_rep.lifetime_vs(worn_rep) == float("inf")
        assert worn_rep.lifetime_vs(fresh_rep) == 0.0
        assert fresh_rep.lifetime_vs(fresh_rep) == 1.0

    def test_dwpd_falls_with_write_amplification(self):
        """Same budget, higher WA -> fewer host writes per day."""
        from dataclasses import replace

        geo, ftl = self._worn_ftl()
        m = EnduranceModel("SLC")
        rep = m.report(ftl, 100.0)
        worse = replace(rep, write_amplification=rep.write_amplification * 2)
        assert m.drive_writes_per_day(geo, worse) < m.drive_writes_per_day(
            geo, rep
        )

    def test_retired_blocks_leave_wear_statistics(self):
        """A dead block must not bound the lifetime projection."""
        geo, ftl = self._worn_ftl()
        worst = max(ftl.collector.stats.erase_counts,
                    key=ftl.collector.stats.erase_counts.get)
        before = EnduranceModel().report(ftl, 100.0)
        ftl.retire_block(worst)
        after = EnduranceModel().report(ftl, 100.0)
        assert after.max_block_erases <= before.max_block_erases
        assert worst not in ftl.collector.stats.erase_counts

    def test_report_matches_smart_snapshot_inputs(self):
        """The SMART page and the endurance report agree on wear."""
        from repro.flash.endurance import PE_LIMITS as LIMITS

        geo, ftl = self._worn_ftl()
        rep = EnduranceModel("TLC").report(ftl, 50.0)
        assert rep.pe_limit == LIMITS["TLC"]
        counts = ftl.collector.stats.erase_counts
        assert rep.total_erases == sum(counts.values())
        assert rep.max_block_erases == max(counts.values())
