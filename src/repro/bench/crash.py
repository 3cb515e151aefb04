"""Crash-chaos harness: power-loss injection and recovery verdicts.

``python -m repro.bench --chaos plan.json`` routes here when the plan
schedules :class:`~repro.faults.PowerLoss` events.  The replay is split
into **episodes** at the scheduled cut instants:

1. each episode runs on a *fresh* simulator and a *fresh* device — the
   cut is ``sim.run(until=cut)``: events past the instant (in-flight
   program completions, pending journal flushes, SD timers) simply
   never dispatch, exactly like losing power;
2. the **durable artifacts** — checkpoint store, journal (minus its
   volatile tail), OOB area — carry across the cut, everything else is
   lost: the write-back buffer, the journal tail, the device's RAM
   metadata;
3. a :class:`~repro.recovery.RecoveryScanner` rebuilds the mapping
   state, which is verified three ways before the next episode starts:

   - **fingerprint** against the crash-free oracle (the previous
     manager's live-record map) — recovery must be exact;
   - **bit-identical rebuild**: the recovered-and-installed device's
     mapping/allocator/FTL digests must equal a from-scratch replay of
     the recovered records;
   - **integrity verdict**: every durably programmed block must resolve
     to its exact durable generation (else ``lost_acked``), CRCs are
     scrubbed when enabled, and write-back-window losses are counted
     separately as ``lost_volatile``.

The final verdict is **RECOVERED** (exit 0) when only volatile-window
data was lost, **DATA-LOSS** (exit 2) when an acked-durable block went
missing, and **CORRUPTION** (exit 3) when recovered metadata
contradicts the oracle, the rebuild digests diverge, or the CRC scrub
fails.  Verdict strings and exit codes are the shared vocabulary of
:mod:`repro.bench.verdicts`, used identically by the chaos and cluster
harnesses.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Dict, List, Optional

from repro.bench import verdicts
from repro.bench.experiments import ReplayConfig, build_stack
from repro.bench.record import RunRecord
from repro.core.config import EDCConfig
from repro.core.writeback import WriteBackBuffer
from repro.faults.plan import FaultPlan
from repro.recovery import (
    DurableMetadataManager,
    IntegrityTracker,
    RecoveredState,
    RecoveryParams,
    RecoveryScanner,
)
from repro.sim.engine import Simulator
from repro.traces.workloads import make_workload

__all__ = ["run_crash_chaos", "render"]

SCHEME = "EDC"


def render(record: RunRecord) -> str:
    """Text report of a ``crash`` record: one block per power cut."""
    sc, r = record.scenario, record.results
    episodes = record.sections["episodes"]
    lines = [
        f"crash chaos: {sc['trace']} x {sc['scheme']} "
        f"({sc['backend']}), {r['n_requests']} requests over "
        f"{sc['duration_s']:.0f}s virtual, "
        f"{len(episodes)} power cut(s)",
    ]
    for i, e in enumerate(episodes, 1):
        scan, scrub = e["scan"], e["scrub"]
        lines.append(
            f"  cut #{i} @ {e['cut_at']:.3f}s: "
            f"ckpt {scan['checkpoint_entries']} entries "
            f"(stale {scan['checkpoint_staleness_s']:.3f}s), "
            f"journal replay {scan['journal_replay_len']}, "
            f"oob scan {scan['scan_pages_read']} pages "
            f"({scan['oob_only_entries']} oob-only), "
            f"{scan['recovered_entries']} entries recovered"
        )
        lines.append(
            f"           lost: {e['verify']['lost_acked']} acked, "
            f"{e['verify']['lost_volatile']} volatile (allowed); "
            f"scrub {scrub['checked_blocks']} blocks, "
            f"{scrub['mismatches']} mismatches; "
            f"oracle fingerprint "
            + ("MATCH" if e["fingerprint_ok"] else "MISMATCH")
            + ", rebuild "
            + ("bit-identical" if e["rebuild_identical"] else "DIVERGED")
        )
    lines.append(
        f"  metadata:   {r['journal_write_bytes']} B journal + "
        f"{r['checkpoint_write_bytes']} B checkpoints "
        f"({r['checkpoints_taken']} taken) = "
        f"{r['meta_overhead'] * 100:.2f}% of host data, "
        f"{r['meta_device_seconds'] * 1e3:.2f} ms device time"
    )
    lines.append(
        f"  buffer:     durability window peaked at "
        f"{r['acked_unflushed_peak']} acked-unflushed blocks"
    )
    lines.append(f"  verdict:    {record.verdict}")
    return "\n".join(lines)


def _episode_corrupted(e: Dict[str, object]) -> bool:
    return (
        not e["fingerprint_ok"]
        or not e["rebuild_identical"]
        or e["verify"]["corrupt"] > 0
        or e["verify"]["phantom"] > 0
        or e["scrub"]["mismatches"] > 0
        or e["scan"]["inconsistencies"] > 0
    )


def _episode_plan(plan: FaultPlan) -> Optional[FaultPlan]:
    """The per-episode injector plan: everything except the power cuts."""
    stripped = plan.with_overrides(power_losses=())
    return None if stripped.is_empty else stripped


def run_crash_chaos(
    plan: FaultPlan,
    trace_name: str = "Fin1",
    backend: str = "ssd",
    duration: float = 12.0,
) -> RunRecord:
    """Replay ``trace_name`` with the plan's power cuts and verify recovery.

    Only the single-SSD backend is supported: the durable-metadata
    machinery journals one device's mapping; crash-consistent RAIS5
    metadata (per-member journals plus parity of the metadata pages) is
    future work and requesting it fails loudly here.

    The ``crash`` record: ``results`` sums the acked/volatile losses,
    corruption events and the metadata overhead over the run;
    ``sections["episodes"]`` has one entry per power cut — ``cut_at``,
    the ``scan`` (:class:`~repro.recovery.RecoveryReport`), ``verify``
    (:class:`~repro.recovery.VerifyReport`) and ``scrub``
    (:class:`~repro.recovery.ScrubReport`) as mappings,
    ``fingerprint_ok``, ``rebuild_identical`` and ``lost_tail_records``.
    """
    if backend != "ssd":
        raise ValueError(
            "crash chaos supports only the single-SSD backend; "
            "per-member metadata journaling for rais5 is not implemented"
        )
    if not plan.power_losses:
        raise ValueError("crash chaos needs at least one scheduled power loss")
    cfg = ReplayConfig(backend="ssd", device_config=EDCConfig(crc_checks=True))
    block = cfg.device_config.block_size
    requests = sorted(
        cfg.fold(make_workload(trace_name, duration=duration)),
        key=lambda r: r.time,
    )

    cuts = sorted(p.at for p in plan.power_losses)
    if len(set(cuts)) != len(cuts):
        raise ValueError("power-loss times must be distinct")
    inject = _episode_plan(plan)

    episodes: List[Dict[str, object]] = []
    final_fingerprint_ok = True
    journal_write_bytes = checkpoint_write_bytes = host_data_bytes = 0
    meta_device_seconds = 0.0
    acked_unflushed_peak = 0
    tracker = IntegrityTracker(block)

    # Durable artifacts surviving every cut; None = cold (first) boot.
    manager: Optional[DurableMetadataManager] = None
    recovered: Optional[RecoveredState] = None
    #: from-scratch rebuild digest of the last recovery, compared against
    #: the recovered-and-installed device of the *next* episode
    pending_digest: Optional[str] = None
    next_req = 0
    episode_bounds = cuts + [None]  # None = run the tail to completion

    for cut in episode_bounds:
        sim = Simulator()
        stack = build_stack(sim, cfg, SCHEME, fault_plan=inject)
        device, ssd = stack.device, stack.backend
        if inject is not None:
            inject.schedule_failures(sim, stack.members)
        prev = manager
        manager = DurableMetadataManager(
            RecoveryParams(),
            journal=prev.journal if prev is not None else None,
            checkpoints=prev.checkpoints if prev is not None else None,
            oob=prev.oob if prev is not None else None,
        )
        manager.bind_device(device)
        manager.on_programmed_hook = tracker.on_programmed
        if recovered is not None:
            manager.install(recovered)
            recovered = None
            # Bit-identical acceptance: the recovered-and-installed
            # device's metadata must equal the from-scratch rebuild of
            # the same recovered state, digest for digest.
            h = hashlib.sha256()
            h.update(device.mapping.state_digest().encode())
            h.update(device.allocator.state_digest().encode())
            h.update(ssd.ftl.validity_digest().encode())
            episodes[-1]["rebuild_identical"] = h.hexdigest() == pending_digest
            pending_digest = None

        # Resume the wall clock where the cut left it: request
        # timestamps are absolute trace times.
        start_t = sim.now
        buffer = WriteBackBuffer(sim, device)

        def _track_submitted(req) -> None:
            if req.is_write:
                tracker.on_submitted(req.lba, req.nbytes)

        device.events.subscribe("request", _track_submitted)

        while next_req < len(requests) and (
            cut is None or requests[next_req].time < cut
        ):
            req = requests[next_req]
            sim.schedule_at(
                max(req.time, start_t), lambda r=req: buffer.submit(r)
            )
            next_req += 1

        if cut is None:
            # Final episode: run to completion, flush everything, then
            # prove the durable state still matches the oracle exactly.
            sim.run()
            buffer.flush_all()
            sim.run()
            manager.take_checkpoint(force=True)
            scanner = RecoveryScanner(
                manager.checkpoints, manager.journal, manager.oob, block
            )
            state, _ = scanner.scan(now=sim.now)
            oracle = RecoveredState(
                records=manager.live_records,
                next_seqno=manager.next_seqno,
                block_size=block,
            )
            final_fingerprint_ok = state.fingerprint() == oracle.fingerprint()
        else:
            # THE POWER CUT: advance the clock to the instant and stop.
            # Events scheduled past it — in-flight completions included —
            # never dispatch; volatile state below is then destroyed.
            sim.run(until=cut)
            manager.detach()
            dirty = set(buffer.unflushed_blocks())
            volatile = tracker.volatile_blocks(dirty)
            lost_tail = manager.journal.lose_volatile_tail()
            tracker.crash_reset()

            oracle = RecoveredState(
                records=manager.live_records,
                next_seqno=manager.next_seqno,
                block_size=block,
            )
            scanner = RecoveryScanner(
                manager.checkpoints, manager.journal, manager.oob, block
            )
            state, scan_report = scanner.scan(now=cut)

            rebuilt = state.rebuild(
                cfg.device_config.size_class_fractions,
                geometry=cfg.geometry(),
            )
            verify = tracker.verify(rebuilt, state.records, volatile)
            scrub = state.scrub(device.content)

            # The bit-identical half of the check completes next episode,
            # once this state has been installed into a fresh device.
            pending_digest = rebuilt.digest()

            episodes.append({
                "cut_at": cut,
                "scan": asdict(scan_report),
                "verify": asdict(verify),
                "scrub": asdict(scrub),
                # recovered state fingerprint == crash-free oracle's
                "fingerprint_ok": state.fingerprint() == oracle.fingerprint(),
                # installed device digests == from-scratch rebuild digests
                "rebuild_identical": True,
                # journal tail records destroyed by this cut
                "lost_tail_records": lost_tail,
            })
            manager.last_recovery = scan_report
            recovered = state

        journal_write_bytes += manager.stats.journal_write_bytes
        checkpoint_write_bytes += manager.stats.checkpoint_write_bytes
        meta_device_seconds += manager.stats.meta_device_seconds
        host_data_bytes += max(
            0, ssd.ftl.stats.host_bytes - manager.stats.meta_write_bytes
        )
        acked_unflushed_peak = max(
            acked_unflushed_peak, buffer.stats.acked_unflushed_peak
        )

    corruption_events = sum(map(_episode_corrupted, episodes)) + (
        0 if final_fingerprint_ok else 1
    )
    lost_acked = sum(e["verify"]["lost_acked"] for e in episodes)
    meta_write_bytes = journal_write_bytes + checkpoint_write_bytes
    return RunRecord(
        kind="crash",
        scenario={
            "trace": trace_name,
            "scheme": SCHEME,
            "backend": backend,
            "duration_s": duration,
            "plan": plan.to_dict(),
        },
        results={
            "n_requests": len(requests),
            "lost_acked": lost_acked,
            # blocks lost from the volatile window (buffer + in-flight)
            "lost_volatile": sum(
                e["verify"]["lost_volatile"] for e in episodes
            ),
            "corruption_events": corruption_events,
            # final no-crash consistency check (durable state vs oracle)
            "final_fingerprint_ok": final_fingerprint_ok,
            "journal_write_bytes": journal_write_bytes,
            "checkpoint_write_bytes": checkpoint_write_bytes,
            # The checkpoint store (and its stats) carries across
            # episodes: the last manager holds the cumulative count.
            "checkpoints_taken": manager.checkpoints.stats.checkpoints,
            "meta_device_seconds": meta_device_seconds,
            # metadata bytes per host data byte (the durability WA tax)
            "meta_overhead": (
                meta_write_bytes / host_data_bytes if host_data_bytes else 0.0
            ),
            "acked_unflushed_peak": acked_unflushed_peak,
        },
        sections={"episodes": episodes},
        verdict=verdicts.grade(
            corruption=corruption_events, data_loss=lost_acked
        ),
    )
