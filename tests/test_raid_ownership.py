"""RAIS5 owns the pieces it places: trim invalidates exactly those.

A write of ``key`` places pieces ``(key, 0..n-1)`` on the members; the
array records ``n`` and :meth:`RAIS5.trim` removes exactly those
pieces.  A small write's data piece is only programmed after its
read-modify-write read phase, so a trim that arrives first must still
catch it when it lands.  The end-to-end check: after a replay, every
``(entry id, i)`` piece on every member belongs to a live mapping
entry, and the array owns exactly the live entries.
"""

from pathlib import Path

import pytest

from repro.bench.chaos import run_chaos
from repro.bench.experiments import ReplayConfig, replay
from repro.faults import FaultPlan
from repro.flash.geometry import x25e_like
from repro.flash.introspect import ssds_of
from repro.flash.raid import RAIS5
from repro.flash.ssd import SimulatedSSD
from repro.sim.engine import Simulator
from repro.traces.workloads import make_workload


def make_array(sim, n=5):
    devices = [
        SimulatedSSD(sim, name=f"ssd{i}", geometry=x25e_like(32)) for i in range(n)
    ]
    return RAIS5(devices), devices


def pieces_of(devices, key):
    return [
        (dev.name, k) for dev in devices for k in dev.ftl._extents
        if isinstance(k, tuple) and len(k) == 2 and k[0] == key
    ]


def assert_owned(device):
    """Every member data piece belongs to a live entry, and vice versa."""
    live = device._entry_meta
    orphans = [
        (member.name, k)
        for member in ssds_of(device.backend)
        for k in member.ftl._extents
        if isinstance(k, tuple) and len(k) == 2 and isinstance(k[0], int)
        and k[0] not in live
    ]
    assert orphans == []
    assert set(device.backend._pieces) == set(live)


class TestTrim:
    def test_trim_removes_every_placed_piece(self):
        sim = Simulator()
        arr, devices = make_array(sim)
        arr.submit_write(0, 4096 * 8, key="k")  # two full stripe rows
        sim.run()
        assert len(pieces_of(devices, "k")) == 8
        assert arr.trim("k")
        assert pieces_of(devices, "k") == []
        assert not arr.trim("k")  # nothing owned any more

    def test_trim_during_rmw_read_phase_leaves_no_piece(self):
        sim = Simulator()
        arr, devices = make_array(sim)
        arr.submit_write(0, 4096, key="k")  # one unit: read-modify-write
        assert pieces_of(devices, "k") == []  # still reading old data/parity
        assert not arr.trim("k")  # nothing placed yet
        sim.run()
        assert pieces_of(devices, "k") == []
        assert "k" not in arr._pieces

    def test_trim_between_placed_and_reading_pieces(self):
        sim = Simulator()
        arr, devices = make_array(sim)
        # Unit 0..3 fill row 0 (placed at once); unit 4 is a partial
        # row 1 write that is still reading when the trim arrives.
        arr.submit_write(0, 4096 * 5, key="k")
        assert len(pieces_of(devices, "k")) == 4
        assert arr.trim("k")
        sim.run()
        assert pieces_of(devices, "k") == []

    def test_data_folded_into_parity_leaves_nothing_owned(self):
        sim = Simulator()
        arr, devices = make_array(sim)
        # Unit 0's data lives on member 0 (row 0's parity is member 4).
        arr.submit_write(0, 4096, key="k")
        devices[0].fail_now()  # its queued RMW data read now fails
        arr.trim("k")
        sim.run()
        assert arr.degraded and arr.stats.degraded_writes == 1
        assert pieces_of(devices, "k") == []
        assert arr._pieces == {}


class TestReplaysLeaveNoOrphans:
    def test_fault_free_fin1_replay(self):
        ctx = {}
        replay(
            make_workload("Fin1", duration=5), "EDC",
            ReplayConfig(backend="rais5"),
            on_built=lambda sim, device, backend, devices: ctx.update(
                device=device
            ),
        )
        assert ctx["device"].outstanding == 0
        assert_owned(ctx["device"])

    @pytest.mark.parametrize("plan, scrub", [
        ("benchmarks/chaos_fin1.json", None),
        ("benchmarks/latent_fin1.json", 0.005),
    ])
    def test_chaos_run(self, plan, scrub):
        path = Path(__file__).resolve().parents[1] / plan
        record = run_chaos(
            FaultPlan.from_json(str(path)), duration=6, scrub_interval=scrub
        )
        assert record.verdict == "RECOVERED"
        assert_owned(record.live["device"])
