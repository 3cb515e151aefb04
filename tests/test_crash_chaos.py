"""End-to-end crash-chaos tests (``repro.bench.crash``).

The heart of the crash-consistency acceptance: power cuts at arbitrary
instants must end in a RECOVERED verdict — every durably acked block
readable with the right content generation, merged runs all-or-nothing,
the recovered state fingerprint-identical to the crash-free oracle and
bit-identical to a from-scratch rebuild — with only volatile-window
losses allowed.  Includes the overlay-reclamation property: overwriting
part of a merged run and crashing must reclaim the old run's storage
exactly once (no double-free, no leak) against a crash-free oracle.
"""

import pytest

from repro.bench.crash import render, run_crash_chaos
from repro.bench.schemes import build_device
from repro.core.config import EDCConfig
from repro.faults import FaultPlan, PowerLoss
from repro.flash.geometry import x25e_like
from repro.flash.ssd import SimulatedSSD
from repro.recovery import (
    DurableMetadataManager,
    RecoveredState,
    RecoveryParams,
    RecoveryScanner,
)
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator
from repro.traces.model import IORequest, WRITE

BS = 4096


class TestRunCrashChaos:
    def test_two_cuts_end_recovered(self):
        plan = FaultPlan(
            seed=11, power_losses=(PowerLoss(at=2.0), PowerLoss(at=4.0))
        )
        report = run_crash_chaos(plan, duration=6.0)
        assert report.verdict == "RECOVERED"
        assert report.exit_code == 0
        episodes = report.sections["episodes"]
        assert len(episodes) == 2
        for ep in episodes:
            assert ep["fingerprint_ok"]
            assert ep["rebuild_identical"]
            assert ep["verify"]["lost_acked"] == 0
            assert ep["verify"]["corrupt"] == 0
            assert ep["scrub"]["mismatches"] == 0
            assert ep["scan"]["recovered_entries"] > 0
        r = report.results
        assert r["final_fingerprint_ok"]
        # The durability tax is real and measured.
        assert r["journal_write_bytes"] + r["checkpoint_write_bytes"] > 0
        assert r["meta_overhead"] > 0
        assert r["meta_device_seconds"] > 0
        assert r["acked_unflushed_peak"] > 0

    def test_rais5_rejected_loudly(self):
        plan = FaultPlan(power_losses=(PowerLoss(at=1.0),))
        with pytest.raises(ValueError, match="single-SSD backend"):
            run_crash_chaos(plan, backend="rais5")

    def test_needs_a_power_loss(self):
        with pytest.raises(ValueError, match="at least one"):
            run_crash_chaos(FaultPlan())

    def test_duplicate_cut_times_rejected(self):
        plan = FaultPlan(power_losses=(PowerLoss(at=1.0), PowerLoss(at=1.0)))
        with pytest.raises(ValueError, match="distinct"):
            run_crash_chaos(plan)

    def test_cli_routes_power_loss_plans(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        plan = FaultPlan(seed=3, power_losses=(PowerLoss(at=2.0),))
        path = str(tmp_path / "crash.json")
        plan.to_json(path)
        code = main(["crash", path, "--duration", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "RECOVERED" in out
        assert "crash chaos" in out


def _mini_stack(journal_flush_bytes=1_000_000):
    """A bare device + manager for hand-driven crash scenarios.

    The huge journal flush threshold keeps every journal record in the
    volatile tail, so a simulated cut exercises the OOB fallback path.
    """
    sim = Simulator()
    ssd = SimulatedSSD(sim, geometry=x25e_like(64))
    content = ContentStore(ENTERPRISE_MIX, block_size=BS, pool_blocks=64)
    device = build_device(
        sim, "EDC", ssd, content, config=EDCConfig(crc_checks=True)
    )
    manager = DurableMetadataManager(RecoveryParams(
        checkpoint_interval_s=1000.0,  # no periodic checkpoint interferes
        journal_flush_bytes=journal_flush_bytes,
    ))
    manager.bind_device(device)
    return sim, ssd, device, manager


def _settle(sim, device):
    sim.run()
    device.flush()
    sim.run()


def _scan(manager):
    state, report = RecoveryScanner(
        manager.checkpoints, manager.journal, manager.oob, BS
    ).scan()
    return state, report


def _oracle(manager):
    return RecoveredState(manager.live_records, manager.next_seqno, BS)


class TestOverlayReclamationUnderRecovery:
    def test_partial_overwrite_then_crash_reclaims_exactly_once(self):
        sim, ssd, device, manager = _mini_stack()
        # One merged 4-block run...
        device.submit(IORequest(0.0, WRITE, 0, 4 * BS))
        _settle(sim, device)
        runs_before = {r.seqno: r for r in manager.live_records.values()}
        assert any(r.span > 1 for r in runs_before.values())
        # ...then overwrite two of its middle blocks and "crash" with
        # every journal record still in the volatile tail.
        device.submit(IORequest(sim.now, WRITE, BS, 2 * BS))
        _settle(sim, device)
        manager.journal.lose_volatile_tail()

        state, _ = _scan(manager)
        oracle = _oracle(manager)
        assert state.fingerprint() == oracle.fingerprint()
        # The old run survives (still covers its uncovered blocks); the
        # overwrite wins its two blocks.
        cover = state.coverage()
        old = next(r for r in runs_before.values() if r.span > 1)
        new_seqnos = set(state.records) - set(runs_before)
        assert cover[0] == old.seqno and cover[old.span - 1] == old.seqno
        assert cover[1] in new_seqnos and cover[2] in new_seqnos
        # Reclaimed exactly once: rebuilding the recovered state and
        # rebuilding the crash-free oracle agree byte-for-byte on
        # allocator occupancy — no double-free, no leaked slots.
        geo = x25e_like(64)
        recovered = state.rebuild(geometry=geo)
        reference = oracle.rebuild(geometry=geo)
        assert recovered.allocator.state_digest() == \
            reference.allocator.state_digest()
        assert recovered.allocator.live_physical_bytes == \
            device.allocator.live_physical_bytes

    def test_crash_before_overwrite_programs_keeps_old_run_whole(self):
        sim, ssd, device, manager = _mini_stack()
        device.submit(IORequest(0.0, WRITE, 0, 4 * BS))
        _settle(sim, device)
        oracle_before = _oracle(manager)
        # Submit the overwrite but cut power before any of it programs:
        # all-or-nothing means recovery must return the old run intact.
        device.submit(IORequest(sim.now, WRITE, BS, 2 * BS))
        sim.run(until=sim.now + 1e-7)
        manager.journal.lose_volatile_tail()
        state, _ = _scan(manager)
        assert state.fingerprint() == oracle_before.fingerprint()

    def test_full_overwrite_then_crash_drops_old_run(self):
        sim, ssd, device, manager = _mini_stack()
        device.submit(IORequest(0.0, WRITE, 0, 4 * BS))
        _settle(sim, device)
        old_seqnos = set(manager.live_records)
        device.submit(IORequest(sim.now, WRITE, 0, 4 * BS))
        _settle(sim, device)
        manager.journal.lose_volatile_tail()
        state, report = _scan(manager)
        # Even with the reclaim records lost, overlay resolution drops
        # the fully shadowed old run instead of resurrecting it.
        assert not (old_seqnos & set(state.records))
        assert report.shadowed_dropped >= 1
        assert state.fingerprint() == _oracle(manager).fingerprint()


@pytest.mark.slow
class TestCrashInstantSweep:
    @pytest.mark.parametrize("cut", [0.8, 1.6, 2.4, 3.2, 4.0])
    def test_any_crash_instant_recovers(self, cut):
        plan = FaultPlan(seed=11, power_losses=(PowerLoss(at=cut),))
        report = run_crash_chaos(plan, duration=5.0)
        assert report.verdict == "RECOVERED", render(report)
        ep = report.sections["episodes"][0]
        assert ep["fingerprint_ok"] and ep["rebuild_identical"]
        assert ep["verify"]["lost_acked"] == 0
