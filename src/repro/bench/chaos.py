"""Chaos replay harness: canonical traces under a :class:`FaultPlan`.

``python -m repro.bench --chaos plan.json`` replays a canonical trace
with the plan's faults injected into every simulated device, then
reports what the recovery machinery did: read retries and recoveries,
bad blocks retired, array degradation windows, the event-driven rebuild,
and — the headline — how many requests were *recovered* versus actually
lost.  Latency percentiles are additionally computed over only the
samples completed inside the array's degraded windows, quantifying the
cost of running degraded.

The harness is deliberately thin over
:func:`repro.bench.experiments.replay`: the same builder, the same
schemes, the same traces — a chaos run with an **empty plan is
bit-identical to the baseline replay**, which
``tests/test_faults.py`` locks in.

Plans with ``power_losses`` do not run here: the CLI routes them to the
crash-consistency harness in :mod:`repro.bench.crash`, which cuts the
simulation mid-flight, runs the recovery scan, and verdicts
RECOVERED / DATA-LOSS / CORRUPTION instead of the degraded-latency
report below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.experiments import ExperimentResult, ReplayConfig, replay
from repro.bench.verdicts import (
    CORRUPTION,
    DATA_LOSS,
    DEGRADED,
    RECOVERED,
    exit_code as verdict_exit_code,
)
from repro.faults.latent import LatentStats
from repro.faults.plan import FaultPlan
from repro.flash.scrub import ScrubConfig
from repro.traces.workloads import make_workload

__all__ = ["ChaosReport", "run_chaos"]


@dataclass(frozen=True)
class ChaosReport:
    """Everything one chaos replay showed about fault handling."""

    trace_name: str
    scheme: str
    backend: str
    duration: float
    result: ExperimentResult
    #: aggregated :class:`~repro.faults.FaultStats` over every injector
    faults: Dict[str, int]
    #: FTL blocks retired / allocator capacity bytes lost across devices
    retired_blocks: int
    retired_bytes: int
    #: requests the EDC layer had to complete as lost
    edc_unrecovered_reads: int
    edc_unrecovered_writes: int
    codec_fallbacks: int
    #: RAIS5 accounting (zeros on a single-SSD backend)
    member_failures: int
    rebuilds: int
    rebuilt_rows: int
    degraded_reads: int
    degraded_writes: int
    array_unrecovered: int
    still_degraded: bool
    #: closed ``(start, end)`` degraded intervals (simulation seconds)
    degraded_windows: Tuple[Tuple[float, float], ...]
    #: request latencies completed inside a degraded window
    degraded_samples: int = 0
    degraded_mean_s: float = 0.0
    degraded_p50_s: float = 0.0
    degraded_p95_s: float = 0.0
    degraded_p99_s: float = 0.0
    #: host reads that hit latent-corrupt media (IntegrityError surfaced)
    corrupt_reads: int = 0
    #: aggregated :class:`~repro.faults.LatentStats` (``None`` when the
    #: plan injects no latent faults)
    latent: Optional[Dict[str, int]] = None
    #: extents still corrupt on media at end of run (silent corruption)
    residual_corrupt: int = 0
    #: :meth:`~repro.flash.scrub.MediaScrubber.to_dict` snapshot
    #: (``None`` when the run had no scrubber)
    scrub: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    @property
    def degraded_time_s(self) -> float:
        return sum(end - start for start, end in self.degraded_windows)

    @property
    def recovered_reads(self) -> int:
        return self.faults.get("reads_recovered", 0)

    @property
    def data_loss_events(self) -> int:
        """Requests that completed *lost* anywhere in the stack."""
        return (
            self.faults.get("reads_unrecovered", 0)
            + self.edc_unrecovered_reads
            + self.edc_unrecovered_writes
            + self.array_unrecovered
        )

    @property
    def scrub_unrepairable(self) -> int:
        if not self.scrub:
            return 0
        stats = self.scrub.get("stats", {})
        return int(stats.get("unrepairable", 0))

    @property
    def verdict(self) -> str:
        """Unified chaos verdict (see :mod:`repro.bench.verdicts`).

        Corruption dominates: a host read served off corrupt media, an
        extent the scrubber could not repair, or corruption still
        sitting on media at end of run all mean the stack returned (or
        would return) wrong bytes.  Data loss means requests completed
        lost; degraded means the array never healed.
        """
        if self.corrupt_reads or self.residual_corrupt or self.scrub_unrepairable:
            return CORRUPTION
        if self.data_loss_events:
            return DATA_LOSS
        if self.still_degraded:
            return DEGRADED
        return RECOVERED

    @property
    def exit_code(self) -> int:
        return verdict_exit_code(self.verdict)

    @property
    def ok(self) -> bool:
        """Zero data loss, zero corruption, array back to normal."""
        return self.verdict == RECOVERED

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "trace": self.trace_name,
            "scheme": self.scheme,
            "backend": self.backend,
            "duration_s": self.duration,
            "n_requests": self.result.n_requests,
            "mean_response_s": self.result.mean_response,
            "faults": dict(self.faults),
            "retired_blocks": self.retired_blocks,
            "retired_bytes": self.retired_bytes,
            "edc_unrecovered_reads": self.edc_unrecovered_reads,
            "edc_unrecovered_writes": self.edc_unrecovered_writes,
            "codec_fallbacks": self.codec_fallbacks,
            "member_failures": self.member_failures,
            "rebuilds": self.rebuilds,
            "rebuilt_rows": self.rebuilt_rows,
            "degraded_reads": self.degraded_reads,
            "degraded_writes": self.degraded_writes,
            "array_unrecovered": self.array_unrecovered,
            "still_degraded": self.still_degraded,
            "degraded_windows": [list(w) for w in self.degraded_windows],
            "degraded_time_s": self.degraded_time_s,
            "degraded_samples": self.degraded_samples,
            "degraded_mean_s": self.degraded_mean_s,
            "degraded_p50_s": self.degraded_p50_s,
            "degraded_p95_s": self.degraded_p95_s,
            "degraded_p99_s": self.degraded_p99_s,
            "data_loss_events": self.data_loss_events,
            "corrupt_reads": self.corrupt_reads,
            "latent": dict(self.latent) if self.latent is not None else None,
            "residual_corrupt": self.residual_corrupt,
            "scrub": self.scrub,
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "ok": self.ok,
        }

    def render(self) -> str:
        """BENCH-style text report of the chaos replay."""
        f = self.faults
        ms = 1e3
        lines = [
            f"chaos replay: {self.trace_name} x {self.scheme} "
            f"({self.backend}), {self.result.n_requests} requests over "
            f"{self.duration:.0f}s virtual",
            f"  mean response {self.result.mean_response * ms:.3f} ms "
            f"(p95 {self.result.p95_response * ms:.3f}, "
            f"p99 {self.result.p99_response * ms:.3f})",
            f"  read faults:  {f.get('read_faults', 0)} injected, "
            f"{f.get('read_retries', 0)} retries, "
            f"{f.get('reads_recovered', 0)} recovered, "
            f"{f.get('reads_unrecovered', 0)} exhausted",
            f"  bad blocks:   {f.get('program_faults', 0)} program faults, "
            f"{self.retired_blocks} blocks retired "
            f"({self.retired_bytes} bytes of capacity)",
            f"  spikes:       {f.get('latency_spikes', 0)} latency spikes",
        ]
        if self.member_failures or self.backend == "rais5":
            lines.append(
                f"  array:        {f.get('device_failures', 0)} device "
                f"failures, {self.member_failures} absorbed; "
                f"{self.rebuilds} rebuilds ({self.rebuilt_rows} rows); "
                f"{self.degraded_reads} reconstructed reads, "
                f"{self.degraded_writes} degraded writes"
            )
            lines.append(
                f"  degraded:     {self.degraded_time_s:.3f}s over "
                f"{len(self.degraded_windows)} window(s)"
                + ("  [STILL DEGRADED]" if self.still_degraded else "")
            )
            if self.degraded_samples:
                lines.append(
                    f"  degraded lat: n={self.degraded_samples}, "
                    f"mean {self.degraded_mean_s * ms:.3f} ms, "
                    f"p50 {self.degraded_p50_s * ms:.3f}, "
                    f"p95 {self.degraded_p95_s * ms:.3f}, "
                    f"p99 {self.degraded_p99_s * ms:.3f}"
                )
        if self.latent is not None:
            la = self.latent
            lines.append(
                f"  latent:       {la.get('retention_events', 0)} retention "
                f"drops, {la.get('disturb_events', 0)} read-disturb "
                f"corruptions, {la.get('corrupted_extents', 0)} extents "
                f"corrupted, {self.residual_corrupt} still corrupt at end; "
                f"{self.corrupt_reads} host reads hit corrupt media"
            )
        if self.scrub is not None:
            st = self.scrub.get("stats", {})
            lines.append(
                f"  scrub:        {st.get('scanned', 0)} entries verified "
                f"({st.get('verify_bytes', 0)} bytes), "
                f"{st.get('corrupt_found', 0)} corrupt found, "
                f"{st.get('parity_repairs', 0)} parity / "
                f"{st.get('replica_repairs', 0)} replica repairs, "
                f"{st.get('blocks_retired', 0)} blocks retired, "
                f"{st.get('unrepairable', 0)} unrepairable"
            )
        lines.append(
            f"  losses:       {self.data_loss_events} unrecovered "
            f"(edc reads {self.edc_unrecovered_reads}, "
            f"edc writes {self.edc_unrecovered_writes}, "
            f"array {self.array_unrecovered}); "
            f"{self.codec_fallbacks} codec fallbacks to raw"
        )
        lines.append(
            "  verdict:      "
            + (f"{RECOVERED} (zero data loss, array healthy)" if self.ok
               else self.verdict)
        )
        return "\n".join(lines)


def run_chaos(
    plan: FaultPlan,
    trace_name: str = "Fin1",
    scheme: str = "EDC",
    backend: str = "rais5",
    duration: float = 20.0,
    cfg: Optional[ReplayConfig] = None,
    sampler=None,
    scrub: Optional[ScrubConfig] = None,
    scrub_interval: Optional[float] = None,
) -> ChaosReport:
    """Replay one canonical trace under ``plan`` and report recovery.

    ``cfg`` overrides the replay environment (its ``backend`` wins over
    the ``backend`` argument); ``sampler`` optionally attaches a
    :class:`~repro.telemetry.TimeSeriesSampler`, whose vocabulary gains
    the ``faults.*`` / ``array.*`` families on fault-injected runs.

    ``scrub`` (a :class:`~repro.flash.scrub.ScrubConfig`) or the
    shorthand ``scrub_interval`` (seconds between sweep ticks) arms the
    online media scrubber for the replay.  After the trace drains, the
    harness grants the scrubber a bounded *idle window* — extra
    simulated time with no host I/O — so in-flight repairs complete and
    late-injected latent errors are swept, exactly as a real scrubber
    catches up during idle.  Corruption still on media after that
    window (or that a host read ever hit) verdicts CORRUPTION.
    """
    cfg = cfg if cfg is not None else ReplayConfig(backend=backend)
    if scrub is None and scrub_interval is not None:
        scrub = ScrubConfig(interval_s=scrub_interval)
    trace = make_workload(trace_name, duration=duration)

    # Timestamp every request completion so latencies can be classified
    # into degraded windows after the run.
    stamped: List[Tuple[float, float]] = []
    ctx: Dict[str, object] = {}

    def _on_built(sim, device, built_backend, devices) -> None:
        ctx["sim"] = sim
        ctx["device"] = device
        ctx["backend"] = built_backend
        ctx["devices"] = devices if devices is not None else [built_backend]
        device.events.subscribe(
            "write_done",
            lambda run: stamped.extend(
                (sim.now, sim.now - arrival) for arrival in run.arrivals
            ),
        )
        device.events.subscribe(
            "read_done",
            lambda request, latency: stamped.append((sim.now, latency)),
        )

    result = replay(
        trace, scheme, cfg, sampler=sampler, fault_plan=plan,
        on_built=_on_built, scrub=scrub,
    )

    device = ctx["device"]
    built_backend = ctx["backend"]
    ssds = ctx["devices"]
    injectors = getattr(built_backend, "fault_injectors", [])
    totals = plan.total_stats(injectors)

    # Idle scrub window: the trace has drained, but the scrubber keeps
    # sweeping during idle.  Fault generation is quiesced first (the
    # host is gone; new retention/disturb strikes during the drain
    # would race the repair forever), then short foreground no-ops are
    # anchored so daemon ticks keep firing, until media is clean or the
    # round budget runs out (unrepairable extents stay corrupt forever
    # — bounded by the no-progress breaker).
    scrubber = device.observers.get("scrubber")
    latent_models = getattr(built_backend, "latent_models", ())
    if scrubber is not None and latent_models:
        sim = ctx["sim"]
        for model in latent_models:
            model.quiesce()
        round_s = scrubber.config.interval_s * 8
        stuck = 0
        prev = None
        for _ in range(256):
            total = sum(m.corrupt_count for m in latent_models)
            if not total:
                break
            # Known-bad (unrepairable) extents never clear: stop once a
            # few rounds make no progress rather than spinning them out.
            stuck = stuck + 1 if total == prev else 0
            if stuck >= 4:
                break
            prev = total
            sim.schedule(round_s, lambda: None)
            sim.run()

    latent_stats: Optional[Dict[str, int]] = None
    residual_corrupt = 0
    if latent_models:
        agg = {name: 0 for name in LatentStats.FIELDS}
        for model in latent_models:
            for k, v in model.stats.as_dict().items():
                agg[k] += v
            residual_corrupt += model.corrupt_count
        latent_stats = agg

    retired_blocks = sum(s.ftl.retired_blocks for s in ssds)
    # Include members swapped out by a rebuild: their FTL still records
    # the retirements it performed while in service.
    member_failures = 0
    rebuilds = 0
    rebuilt_rows = 0
    degraded_reads = 0
    degraded_writes = 0
    array_unrecovered = 0
    still_degraded = False
    windows: List[Tuple[float, float]] = []
    if hasattr(built_backend, "degraded"):
        astats = built_backend.stats
        member_failures = astats.member_failures
        rebuilds = astats.rebuilds
        rebuilt_rows = astats.rebuilt_rows
        degraded_reads = astats.degraded_reads
        degraded_writes = astats.degraded_writes
        array_unrecovered = astats.unrecovered_reads + astats.unrecovered_writes
        still_degraded = built_backend.degraded
        end_of_run = ctx["sim"].now
        for start, end in built_backend.degraded_windows:
            windows.append((start, end if end is not None else end_of_run))

    deg: List[float] = []
    for t, v in stamped:
        if any(start <= t <= end for start, end in windows):
            deg.append(v)
    if deg:
        import numpy as np

        arr = np.asarray(deg)
        p50, p95, p99 = (float(x) for x in np.percentile(arr, (50, 95, 99)))
        deg_stats = dict(
            degraded_samples=len(deg),
            degraded_mean_s=float(arr.mean()),
            degraded_p50_s=p50,
            degraded_p95_s=p95,
            degraded_p99_s=p99,
        )
    else:
        deg_stats = {}

    return ChaosReport(
        trace_name=trace_name,
        scheme=scheme,
        backend=cfg.backend,
        duration=duration,
        result=result,
        faults=totals.as_dict(),
        retired_blocks=retired_blocks,
        retired_bytes=device.allocator.stats.retired_bytes,
        edc_unrecovered_reads=device.unrecovered_reads,
        edc_unrecovered_writes=device.unrecovered_writes,
        codec_fallbacks=device.stats.codec_fallbacks,
        member_failures=member_failures,
        rebuilds=rebuilds,
        rebuilt_rows=rebuilt_rows,
        degraded_reads=degraded_reads,
        degraded_writes=degraded_writes,
        array_unrecovered=array_unrecovered,
        still_degraded=still_degraded,
        degraded_windows=tuple(windows),
        corrupt_reads=device.corrupt_reads,
        latent=latent_stats,
        residual_corrupt=residual_corrupt,
        scrub=scrubber.to_dict() if scrubber is not None else None,
        **deg_stats,
    )
