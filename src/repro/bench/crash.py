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
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.experiments import ReplayConfig, _build_backend
from repro.bench.schemes import build_device
from repro.bench.verdicts import (
    CORRUPTION,
    DATA_LOSS,
    RECOVERED,
    exit_code as verdict_exit_code,
)
from repro.core.config import EDCConfig
from repro.core.writeback import WriteBackBuffer
from repro.faults.plan import FaultPlan
from repro.recovery import (
    DurableMetadataManager,
    IntegrityTracker,
    RecoveredState,
    RecoveryParams,
    RecoveryReport,
    RecoveryScanner,
    ScrubReport,
    VerifyReport,
)
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator
from repro.traces.workloads import make_workload

__all__ = ["CrashEpisode", "CrashReport", "run_crash_chaos"]


@dataclass
class CrashEpisode:
    """Everything one power cut showed about the recovery machinery."""

    cut_at: float
    scan: RecoveryReport
    verify: VerifyReport
    scrub: Optional[ScrubReport]
    #: recovered state fingerprint == crash-free oracle fingerprint
    fingerprint_ok: bool
    #: installed device digests == from-scratch rebuild digests
    rebuild_identical: bool
    #: journal tail records destroyed by this cut
    lost_tail_records: int
    #: blocks lost from the volatile window (buffer + in-flight)
    lost_volatile: int
    recovered_entries: int

    @property
    def corrupted(self) -> bool:
        return (
            not self.fingerprint_ok
            or not self.rebuild_identical
            or self.verify.corrupt > 0
            or self.verify.phantom > 0
            or (self.scrub is not None and self.scrub.mismatches > 0)
            or self.scan.inconsistencies > 0
        )


@dataclass
class CrashReport:
    """Verdict and evidence of one crash-chaos run."""

    trace_name: str
    scheme: str
    backend: str
    duration: float
    n_requests: int
    episodes: List[CrashEpisode] = field(default_factory=list)
    #: final no-crash consistency check (durable state vs oracle)
    final_fingerprint_ok: bool = True
    #: metadata overhead, summed over episodes
    journal_write_bytes: int = 0
    checkpoint_write_bytes: int = 0
    checkpoints_taken: int = 0
    meta_device_seconds: float = 0.0
    host_data_bytes: int = 0
    acked_unflushed_peak: int = 0

    # ------------------------------------------------------------------
    @property
    def lost_acked(self) -> int:
        return sum(e.verify.lost_acked for e in self.episodes)

    @property
    def lost_volatile(self) -> int:
        return sum(e.lost_volatile for e in self.episodes)

    @property
    def corruption_events(self) -> int:
        return sum(1 for e in self.episodes if e.corrupted) + (
            0 if self.final_fingerprint_ok else 1
        )

    @property
    def meta_write_bytes(self) -> int:
        return self.journal_write_bytes + self.checkpoint_write_bytes

    @property
    def meta_overhead(self) -> float:
        """Metadata bytes per host data byte (the durability WA tax)."""
        if self.host_data_bytes == 0:
            return 0.0
        return self.meta_write_bytes / self.host_data_bytes

    @property
    def verdict(self) -> str:
        if self.corruption_events:
            return CORRUPTION
        if self.lost_acked:
            return DATA_LOSS
        return RECOVERED

    @property
    def exit_code(self) -> int:
        return verdict_exit_code(self.verdict)

    @property
    def ok(self) -> bool:
        return self.verdict == RECOVERED

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "trace": self.trace_name,
            "scheme": self.scheme,
            "backend": self.backend,
            "duration_s": self.duration,
            "n_requests": self.n_requests,
            "power_losses": [e.cut_at for e in self.episodes],
            "lost_acked": self.lost_acked,
            "lost_volatile": self.lost_volatile,
            "corruption_events": self.corruption_events,
            "journal_write_bytes": self.journal_write_bytes,
            "checkpoint_write_bytes": self.checkpoint_write_bytes,
            "checkpoints_taken": self.checkpoints_taken,
            "meta_device_seconds": self.meta_device_seconds,
            "meta_overhead": self.meta_overhead,
            "acked_unflushed_peak": self.acked_unflushed_peak,
            "verdict": self.verdict,
        }

    def render(self) -> str:
        lines = [
            f"crash chaos: {self.trace_name} x {self.scheme} "
            f"({self.backend}), {self.n_requests} requests over "
            f"{self.duration:.0f}s virtual, "
            f"{len(self.episodes)} power cut(s)",
        ]
        for i, e in enumerate(self.episodes, 1):
            lines.append(
                f"  cut #{i} @ {e.cut_at:.3f}s: "
                f"ckpt {e.scan.checkpoint_entries} entries "
                f"(stale {e.scan.checkpoint_staleness_s:.3f}s), "
                f"journal replay {e.scan.journal_replay_len}, "
                f"oob scan {e.scan.scan_pages_read} pages "
                f"({e.scan.oob_only_entries} oob-only), "
                f"{e.recovered_entries} entries recovered"
            )
            scrub = (
                f"scrub {e.scrub.checked_blocks} blocks, "
                f"{e.scrub.mismatches} mismatches"
                if e.scrub is not None else "scrub skipped (no CRCs)"
            )
            lines.append(
                f"           lost: {e.verify.lost_acked} acked, "
                f"{e.lost_volatile} volatile (allowed); {scrub}; "
                f"oracle fingerprint "
                + ("MATCH" if e.fingerprint_ok else "MISMATCH")
                + ", rebuild "
                + ("bit-identical" if e.rebuild_identical else "DIVERGED")
            )
        lines.append(
            f"  metadata:   {self.journal_write_bytes} B journal + "
            f"{self.checkpoint_write_bytes} B checkpoints "
            f"({self.checkpoints_taken} taken) = "
            f"{self.meta_overhead * 100:.2f}% of host data, "
            f"{self.meta_device_seconds * 1e3:.2f} ms device time"
        )
        lines.append(
            f"  buffer:     durability window peaked at "
            f"{self.acked_unflushed_peak} acked-unflushed blocks"
        )
        lines.append(f"  verdict:    {self.verdict}")
        return "\n".join(lines)


def _episode_plan(plan: FaultPlan) -> Optional[FaultPlan]:
    """The per-episode injector plan: everything except the power cuts."""
    stripped = plan.with_overrides(power_losses=())
    return None if stripped.is_empty else stripped


def run_crash_chaos(
    plan: FaultPlan,
    trace_name: str = "Fin1",
    scheme: str = "EDC",
    backend: str = "ssd",
    duration: float = 12.0,
    cfg: Optional[ReplayConfig] = None,
    params: Optional[RecoveryParams] = None,
) -> CrashReport:
    """Replay ``trace_name`` with the plan's power cuts and verify recovery.

    Only the single-SSD backend is supported: the durable-metadata
    machinery journals one device's mapping; crash-consistent RAIS5
    metadata (per-member journals plus parity of the metadata pages) is
    future work and requesting it fails loudly here.
    """
    if backend != "ssd" or (cfg is not None and cfg.backend != "ssd"):
        raise ValueError(
            "crash chaos supports only the single-SSD backend; "
            "per-member metadata journaling for rais5 is not implemented"
        )
    if not plan.power_losses:
        raise ValueError("crash chaos needs at least one scheduled power loss")
    if cfg is None:
        cfg = ReplayConfig(
            backend="ssd", device_config=EDCConfig(crc_checks=True)
        )
    params = params if params is not None else RecoveryParams()
    block = cfg.device_config.block_size
    trace = make_workload(trace_name, duration=duration)
    folded = trace.scaled_addresses(cfg.fold_bytes(block), block)
    requests = sorted(folded, key=lambda r: r.time)

    cuts = sorted(p.at for p in plan.power_losses)
    if len(set(cuts)) != len(cuts):
        raise ValueError("power-loss times must be distinct")
    inject = _episode_plan(plan)

    report = CrashReport(
        trace_name=trace_name,
        scheme=scheme,
        backend="ssd",
        duration=duration,
        n_requests=len(requests),
    )
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
        ssd, _ = _build_backend(sim, cfg)
        if inject is not None:
            inject.attach(sim, ssd, None)
        content = ContentStore(
            cfg.content_mix,
            block_size=block,
            pool_blocks=cfg.pool_blocks,
            seed=cfg.content_seed,
        )
        prev = manager
        manager = DurableMetadataManager(
            params,
            journal=prev.journal if prev is not None else None,
            checkpoints=prev.checkpoints if prev is not None else None,
            oob=prev.oob if prev is not None else None,
        )
        device = build_device(
            sim, scheme, ssd, content, config=cfg.device_config,
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
            report.episodes[-1].rebuild_identical = (
                h.hexdigest() == pending_digest
            )
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
            report.final_fingerprint_ok = (
                state.fingerprint() == oracle.fingerprint()
            )
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
            fingerprint_ok = state.fingerprint() == oracle.fingerprint()

            rebuilt = state.rebuild(
                cfg.device_config.size_class_fractions,
                geometry=cfg.geometry(),
            )
            verify = tracker.verify(rebuilt, state.records, volatile)
            scrub = (
                state.scrub(content)
                if cfg.device_config.crc_checks else None
            )

            # The bit-identical half of the check completes next episode,
            # once this state has been installed into a fresh device.
            pending_digest = rebuilt.digest()

            report.episodes.append(
                CrashEpisode(
                    cut_at=cut,
                    scan=scan_report,
                    verify=verify,
                    scrub=scrub,
                    fingerprint_ok=fingerprint_ok,
                    rebuild_identical=True,
                    lost_tail_records=lost_tail,
                    lost_volatile=verify.lost_volatile,
                    recovered_entries=scan_report.recovered_entries,
                )
            )
            manager.last_recovery = scan_report
            recovered = state

        report.journal_write_bytes += manager.stats.journal_write_bytes
        report.checkpoint_write_bytes += manager.stats.checkpoint_write_bytes
        report.meta_device_seconds += manager.stats.meta_device_seconds
        report.host_data_bytes += max(
            0, ssd.ftl.stats.host_bytes - manager.stats.meta_write_bytes
        )
        if buffer.stats.acked_unflushed_peak > report.acked_unflushed_peak:
            report.acked_unflushed_peak = buffer.stats.acked_unflushed_peak

    # The checkpoint store (and its stats) carries across episodes:
    # read the cumulative count once, after the last episode.
    report.checkpoints_taken = manager.checkpoints.stats.checkpoints
    return report
