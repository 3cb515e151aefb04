"""Tests for the RAIS5 array (paper §IV-B, Fig 11)."""

import pytest

from repro.flash.geometry import x25e_like
from repro.flash.raid import RAIS5, _Barrier, _split_units
from repro.flash.ssd import SimulatedSSD
from repro.sim.engine import Simulator


def make_array(sim, cls, n=5, unit=4096):
    devices = [
        SimulatedSSD(sim, name=f"ssd{i}", geometry=x25e_like(32)) for i in range(n)
    ]
    return cls(devices, stripe_unit=unit), devices


class TestSplitUnits:
    def test_single_unit(self):
        assert _split_units(0, 4096, 4096) == [(0, 0, 4096)]

    def test_unaligned_start(self):
        parts = _split_units(1024, 4096, 4096)
        assert parts == [(0, 1024, 3072), (1, 0, 1024)]

    def test_many_units(self):
        parts = _split_units(0, 16384, 4096)
        assert [p[0] for p in parts] == [0, 1, 2, 3]
        assert all(p[2] == 4096 for p in parts)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            _split_units(0, 0, 4096)


class TestBarrier:
    def test_fires_after_count(self):
        hits = []
        b = _Barrier(3, lambda: hits.append(1))
        b.arrive()
        b.arrive()
        assert hits == []
        b.arrive()
        assert hits == [1]

    def test_over_release_detected(self):
        b = _Barrier(1, None)
        b.arrive()
        with pytest.raises(RuntimeError):
            b.arrive()

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            _Barrier(0, None)


class TestRais5:
    def test_trim_removes_pieces(self):
        sim = Simulator()
        arr, devices = make_array(sim, RAIS5)
        arr.submit_write(0, 4096 * 3, key="k")
        sim.run()
        assert arr.trim("k")
        assert all(d.ftl.extent_size(("k", i)) is None for d in devices for i in range(3))
        assert not arr.trim("k")

    def test_needs_three_devices(self):
        sim = Simulator()
        devs = [SimulatedSSD(sim, name=f"s{i}", geometry=x25e_like(32)) for i in range(2)]
        with pytest.raises(ValueError):
            RAIS5(devs)

    def test_layout_parity_rotates(self):
        sim = Simulator()
        arr, _ = make_array(sim, RAIS5)
        n = 5
        rows = {}
        for uidx in range(20):
            row, data_dev, parity_dev = arr._layout(uidx)
            assert data_dev != parity_dev
            rows.setdefault(row, parity_dev)
            assert rows[row] == parity_dev  # consistent within a row
        # parity device differs across consecutive rows
        parities = [rows[r] for r in sorted(rows)]
        assert len(set(parities)) == n

    def test_small_write_is_rmw(self):
        """Classic RAID-5 small-write penalty: 2 reads + 2 writes."""
        sim = Simulator()
        arr, devices = make_array(sim, RAIS5)
        done = []
        arr.submit_write(0, 4096, on_complete=lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1
        assert sum(d.stats.reads for d in devices) == 2
        assert sum(d.stats.writes for d in devices) == 2
        assert arr.stats.rmw_writes == 1

    def test_full_stripe_write_skips_reads(self):
        sim = Simulator()
        arr, devices = make_array(sim, RAIS5)
        arr.submit_write(0, 4096 * 4)  # 4 data devices = full row
        sim.run()
        assert sum(d.stats.reads for d in devices) == 0
        assert sum(d.stats.writes for d in devices) == 5  # 4 data + 1 parity
        assert arr.stats.full_stripe_writes == 1

    def test_rmw_orders_reads_before_writes(self):
        sim = Simulator()
        arr, devices = make_array(sim, RAIS5)
        done = []
        arr.submit_write(0, 4096, on_complete=lambda: done.append(sim.now))
        sim.run()
        d0 = devices[0]
        read_t = d0.service_read_time(4096)
        write_t = d0.service_write_time(4096)
        assert done[0] == pytest.approx(read_t + write_t)

    def test_read_goes_to_single_data_device(self):
        sim = Simulator()
        arr, devices = make_array(sim, RAIS5)
        arr.submit_read(0, 4096)
        sim.run()
        assert sum(d.stats.reads for d in devices) == 1

    def test_multi_row_write_mixes_modes(self):
        sim = Simulator()
        arr, devices = make_array(sim, RAIS5)
        # 5 units: one full row (4 units) + 1 partial in the next row
        arr.submit_write(0, 4096 * 5)
        sim.run()
        assert arr.stats.full_stripe_writes == 1
        assert arr.stats.rmw_writes == 1

    def test_invalid_stripe_unit(self):
        sim = Simulator()
        devs = [SimulatedSSD(sim, name=f"s{i}", geometry=x25e_like(32)) for i in range(3)]
        with pytest.raises(ValueError):
            RAIS5(devs, stripe_unit=0)
