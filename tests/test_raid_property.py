"""Property-based tests for the RAIS5 array: no lost completions, ever.

The array aggregates variable numbers of sub-operations behind barriers;
a miscounted barrier silently loses a completion and the replay layer
hangs.  Hypothesis drives random request mixes — healthy and degraded —
and requires every submitted operation to complete.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.geometry import x25e_like
from repro.flash.raid import RAIS5
from repro.flash.ssd import SimulatedSSD
from repro.sim.engine import Simulator


ops_strategy = st.lists(
    st.tuples(
        st.booleans(),                        # is read
        st.integers(min_value=0, max_value=40),  # start unit
        st.integers(min_value=1, max_value=6),   # units
    ),
    min_size=1,
    max_size=40,
)


def run_ops(array_cls, ops, n_devices=5, fail=None):
    sim = Simulator()
    devices = [
        SimulatedSSD(sim, name=f"ssd{i}", geometry=x25e_like(32))
        for i in range(n_devices)
    ]
    arr = array_cls(devices)
    if fail is not None:
        arr.fail_device(fail)
    completed = []
    for is_read, unit, units in ops:
        lba = unit * 4096
        nbytes = units * 4096
        if is_read:
            arr.submit_read(lba, nbytes, on_complete=lambda: completed.append(1))
        else:
            arr.submit_write(lba, nbytes, on_complete=lambda: completed.append(1))
    sim.run()
    return arr, devices, completed


class TestNoLostCompletions:
    @given(ops_strategy)
    @settings(max_examples=50, deadline=None)
    def test_rais5_all_ops_complete(self, ops):
        _, _, completed = run_ops(RAIS5, ops)
        assert len(completed) == len(ops)

    @given(ops_strategy, st.integers(min_value=0, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_rais5_degraded_all_ops_complete(self, ops, failed):
        arr, devices, completed = run_ops(RAIS5, ops, fail=failed)
        assert len(completed) == len(ops)
        # The failed member never receives traffic.
        assert devices[failed].stats.reads == 0
        assert devices[failed].stats.writes == 0

    @given(ops_strategy, st.integers(min_value=0, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_rais5_rebuild_after_random_ops(self, ops, failed):
        sim = Simulator()
        devices = [
            SimulatedSSD(sim, name=f"ssd{i}", geometry=x25e_like(32))
            for i in range(5)
        ]
        arr = RAIS5(devices)
        for is_read, unit, units in ops:
            lba, nbytes = unit * 4096, units * 4096
            if is_read:
                arr.submit_read(lba, nbytes)
            else:
                arr.submit_write(lba, nbytes)
        sim.run()
        arr.fail_device(failed)
        spare = SimulatedSSD(sim, name="spare", geometry=x25e_like(32))
        done = []
        arr.rebuild(spare, on_complete=lambda: done.append(1))
        sim.run()
        assert done == [1]
        assert not arr.degraded


class TestConservation:
    @given(ops_strategy)
    @settings(max_examples=30, deadline=None)
    def test_rais5_writes_at_least_data_plus_parity(self, ops):
        arr, devices, _ = run_ops(RAIS5, ops)
        data_bytes = sum(u * 4096 for is_read, _, u in ops if not is_read)
        written = sum(d.stats.bytes_written for d in devices)
        if data_bytes:
            assert written > data_bytes  # parity overhead always present
