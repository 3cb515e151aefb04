"""Tests for RAIS5 degraded-mode operation and rebuild."""

import pytest

from repro.flash.geometry import x25e_like
from repro.flash.raid import RAIS5
from repro.flash.ssd import SimulatedSSD
from repro.sim.engine import Simulator


def make_array(sim, n=5):
    devices = [
        SimulatedSSD(sim, name=f"ssd{i}", geometry=x25e_like(32)) for i in range(n)
    ]
    return RAIS5(devices), devices


class TestFailureHandling:
    def test_fail_and_state(self):
        sim = Simulator()
        arr, _ = make_array(sim)
        assert not arr.degraded
        arr.fail_device(2)
        assert arr.degraded and arr.devices[2].failed

    def test_double_failure_rejected(self):
        sim = Simulator()
        arr, _ = make_array(sim)
        arr.fail_device(0)
        with pytest.raises(RuntimeError):
            arr.fail_device(1)

    def test_invalid_index(self):
        sim = Simulator()
        arr, _ = make_array(sim)
        with pytest.raises(ValueError):
            arr.fail_device(9)


class TestDegradedReads:
    def test_read_of_failed_member_reconstructs(self):
        sim = Simulator()
        arr, devices = make_array(sim)
        # Unit 0 lives on some data device; fail that device.
        _, data_dev, _ = arr._layout(0)
        arr.fail_device(data_dev)
        done = []
        arr.submit_read(0, 4096, on_complete=lambda: done.append(sim.now))
        sim.run()
        assert done
        assert arr.stats.degraded_reads == 1
        # All four survivors were read (reconstruction).
        assert sum(d.stats.reads for d in devices) == 4
        assert devices[data_dev].stats.reads == 0

    def test_read_of_surviving_member_unaffected(self):
        sim = Simulator()
        arr, devices = make_array(sim)
        _, dev0, _ = arr._layout(0)
        # Fail a different device than unit 0's home.
        other = (dev0 + 1) % 5
        arr.fail_device(other)
        arr.submit_read(0, 4096)
        sim.run()
        assert arr.stats.degraded_reads == 0
        assert sum(d.stats.reads for d in devices) == 1

    def test_reconstruction_slower_than_direct(self):
        sim = Simulator()
        arr, devices = make_array(sim)
        direct = []
        arr.submit_read(0, 4096, on_complete=lambda: direct.append(sim.now))
        sim.run()
        sim2 = Simulator()
        arr2, devices2 = make_array(sim2)
        _, data_dev, _ = arr2._layout(0)
        arr2.fail_device(data_dev)
        # Pre-load one survivor so its queue delays the reconstruction.
        survivors = [i for i in range(5) if i != data_dev]
        devices2[survivors[0]].submit_read(0, 262144)
        recon = []
        arr2.submit_read(0, 4096, on_complete=lambda: recon.append(sim2.now))
        sim2.run()
        assert recon[0] > direct[0]


class TestDegradedWrites:
    def test_write_to_failed_data_member_updates_parity_only(self):
        sim = Simulator()
        arr, devices = make_array(sim)
        row, data_dev, parity_dev = arr._layout(0)
        arr.fail_device(data_dev)
        done = []
        arr.submit_write(0, 4096, on_complete=lambda: done.append(sim.now))
        sim.run()
        assert done
        assert arr.stats.degraded_writes == 1
        # n-2 = 3 surviving data units read; parity written.
        assert sum(d.stats.reads for d in devices) == 3
        assert devices[parity_dev].stats.writes == 1
        assert devices[data_dev].stats.writes == 0

    def test_write_with_failed_parity_is_plain_write(self):
        sim = Simulator()
        arr, devices = make_array(sim)
        row, data_dev, parity_dev = arr._layout(0)
        arr.fail_device(parity_dev)
        done = []
        arr.submit_write(0, 4096, on_complete=lambda: done.append(sim.now))
        sim.run()
        assert done
        assert sum(d.stats.reads for d in devices) == 0
        assert devices[data_dev].stats.writes == 1
        assert arr.stats.degraded_writes == 1

    def test_full_stripe_write_skips_failed_member(self):
        sim = Simulator()
        arr, devices = make_array(sim)
        _, dev_of_unit0, _ = arr._layout(0)
        arr.fail_device(dev_of_unit0)
        done = []
        arr.submit_write(0, 4096 * 4, on_complete=lambda: done.append(sim.now))
        sim.run()
        assert done
        assert arr.stats.full_stripe_writes == 1
        # 3 surviving data writes + parity.
        assert sum(d.stats.writes for d in devices) == 4


class TestDoubleFaultWrites:
    """A small write the array reports lost programs no parity."""

    def run_write(self, fail_data_member):
        sim = Simulator()
        devices = [
            SimulatedSSD(sim, name=f"ssd{i}", geometry=x25e_like(16))
            for i in range(5)
        ]
        arr = RAIS5(devices)
        _, data_dev, parity_dev = arr._layout(0)
        assert (data_dev, parity_dev) == (0, 4)
        arr.fail_device(2)
        errors, done = [], []
        if fail_data_member == "before":
            devices[data_dev].fail_now()
        elif fail_data_member == "at_write":
            member = devices[data_dev]
            write = member.submit_write

            def dying_write(*args, **kwargs):
                member.fail_now()
                return write(*args, **kwargs)

            member.submit_write = dying_write
        arr.submit_write(
            0, 4096, on_complete=lambda: done.append(1), key=7,
            on_error=errors.append,
        )
        if fail_data_member == "after":
            devices[data_dev].fail_now()
        sim.run()
        assert done == [] and len(errors) == 1
        assert "double fault" in str(errors[0])
        assert arr.stats.unrecovered_writes == 1
        assert devices[parity_dev].ftl.extent_size(("P", 0)) is None
        assert devices[data_dev].ftl.extent_size((7, 0)) is None

    def test_data_write_as_second_fault(self):
        # The reads succeed; the data write meets the dead member.
        self.run_write("at_write")

    def test_queued_data_read_as_second_fault(self):
        # The member dies with the data read queued: that read fails on
        # completion, so the barrier fails in the read phase.
        self.run_write("after")

    def test_data_read_as_second_fault(self):
        # The barrier fails in the read phase: nothing is programmed,
        # and the lost unit is counted once.
        self.run_write("before")


class TestRebuild:
    def test_rebuild_without_failure_rejected(self):
        sim = Simulator()
        arr, _ = make_array(sim)
        with pytest.raises(RuntimeError):
            arr.rebuild(SimulatedSSD(sim, name="spare", geometry=x25e_like(32)))

    def test_rebuild_restores_normal_operation(self):
        sim = Simulator()
        arr, devices = make_array(sim)
        # Touch two rows, then lose a member.
        arr.submit_write(0, 4096)
        arr.submit_write(arr.stripe_unit * arr.data_devices, 4096)  # row 1
        sim.run()
        _, victim, _ = arr._layout(0)
        arr.fail_device(victim)
        spare = SimulatedSSD(sim, name="spare", geometry=x25e_like(32))
        done = []
        arr.rebuild(spare, on_complete=lambda: done.append(sim.now))
        sim.run()
        assert done
        assert not arr.degraded
        assert arr.stats.rebuilt_rows == 2
        assert spare.stats.writes == 2      # one reconstructed unit per row
        # Reads after rebuild go straight to the (new) member.
        pre = arr.stats.degraded_reads
        arr.submit_read(0, 4096)
        sim.run()
        assert arr.stats.degraded_reads == pre

    def test_array_stays_degraded_until_the_last_row_lands(self):
        sim = Simulator()
        arr, _ = make_array(sim)
        arr.submit_write(0, 4096)
        arr.submit_write(arr.stripe_unit * arr.data_devices, 4096)  # row 1
        sim.run()
        _, victim, _ = arr._layout(0)
        arr.fail_device(victim)
        spare = SimulatedSSD(sim, name="spare", geometry=x25e_like(32))
        landed = []
        submit_write = spare.submit_write

        def tracked_write(lba, nbytes, on_complete=None, **kw):
            def _landed():
                landed.append(sim.now)
                on_complete()

            submit_write(lba, nbytes, on_complete=_landed, **kw)

        spare.submit_write = tracked_write
        done = []
        arr.rebuild(spare, on_complete=lambda: done.append(sim.now))
        # Nothing has landed yet: the window is open and row 0's unit on
        # the failed slot is still reconstructed from the survivors.
        assert arr.degraded
        assert arr.stats.rebuilds == 0 and arr.stats.rebuilt_rows == 0
        assert arr.degraded_windows[-1][1] is None
        arr.submit_read(0, 4096)
        assert arr.stats.degraded_reads == 1
        sim.run()
        assert not arr.degraded
        assert arr.stats.rebuilds == 1
        assert arr.stats.rebuilt_rows == len(landed) == 2
        assert arr.degraded_windows[-1][1] == max(landed) == done[0]

    def test_rebuild_with_no_touched_rows_completes_immediately(self):
        sim = Simulator()
        arr, _ = make_array(sim)
        arr.fail_device(0)
        done = []
        arr.rebuild(
            SimulatedSSD(sim, name="spare", geometry=x25e_like(32)),
            on_complete=lambda: done.append(True),
        )
        assert done == [True]
