#!/usr/bin/env python3
"""Pull the plug mid-replay: crash-consistency demo.

Replays a Fin1 slice on the single-SSD backend with the
durable-metadata machinery enabled (mapping-table checkpoints,
write-ahead journal, per-extent OOB back-pointers, per-block CRCs),
cuts power twice, and prints:

1. the ``crash`` :class:`~repro.bench.record.RunRecord` — per cut, what the
   recovery scan read (checkpoint entries, journal replay length, OOB
   sweep), the oracle-fingerprint and bit-identical-rebuild checks, the
   CRC scrub, and the lost-acked vs lost-volatile split; then the
   metadata overhead (journal/checkpoint bytes charged in-band into
   write amplification and the energy model) and the final
   RECOVERED / DATA-LOSS / CORRUPTION verdict;
2. a direct look at one recovery: the durable artifacts are scanned by
   hand and the recovered state is fingerprint-compared against the
   crash-free oracle;
3. the no-crash overhead: the same machinery running without any cut,
   with its metadata share of device energy split back out.

Run:  python examples/crash_recovery.py
"""

from repro.bench.crash import render, run_crash_chaos
from repro.bench.experiments import ReplayConfig, replay
from repro.core.config import EDCConfig
from repro.energy.model import EnergyModel
from repro.faults import FaultPlan, PowerLoss
from repro.recovery import (
    DurableMetadataManager,
    RecoveryParams,
    RecoveryScanner,
)
from repro.traces.workloads import make_workload


def main() -> None:
    # --- 1. the crash-chaos run ------------------------------------------
    # Two cuts: one mid-burst (4 s), one in GC-heavy steady state (9 s).
    plan = FaultPlan(seed=11, power_losses=(PowerLoss(at=4.0), PowerLoss(at=9.0)))
    report = run_crash_chaos(plan, trace_name="Fin1", duration=12.0)
    print(render(report))
    assert report.ok, report.verdict

    # --- 2. one recovery, by hand ----------------------------------------
    cfg = ReplayConfig(backend="ssd", device_config=EDCConfig(crc_checks=True))
    trace = make_workload("Fin1", duration=3.0)
    manager = DurableMetadataManager(RecoveryParams(checkpoint_interval_s=1.0))
    replay(trace, "EDC", cfg, recovery=manager)
    scanner = RecoveryScanner(
        manager.checkpoints, manager.journal, manager.oob,
        cfg.device_config.block_size,
    )
    state, scan = scanner.scan()
    oracle_fp = type(state)(
        records=manager.live_records,
        next_seqno=manager.next_seqno,
        block_size=cfg.device_config.block_size,
    ).fingerprint()
    print(f"\nmanual scan: {scan.recovered_entries} extents "
          f"({scan.checkpoint_entries} from checkpoint, "
          f"{scan.journal_replay_len} journal records, "
          f"{scan.oob_only_entries} OOB-only), "
          f"fingerprint match: {state.fingerprint() == oracle_fp}")
    assert state.fingerprint() == oracle_fp

    # --- 3. what durability costs ----------------------------------------
    stats = manager.stats
    meta_j = EnergyModel().metadata_joules(manager)
    print(f"metadata overhead: {stats.journal_write_bytes} B journal + "
          f"{stats.checkpoint_write_bytes} B checkpoints across "
          f"{stats.meta_writes} in-band writes, "
          f"{stats.meta_device_seconds * 1e3:.2f} ms device time "
          f"(~{meta_j:.4f} J)")


if __name__ == "__main__":
    main()
