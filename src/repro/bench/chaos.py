"""Chaos replay harness: canonical traces under a :class:`FaultPlan`.

``python -m repro.bench chaos plan.json`` replays a canonical trace
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

Plans with ``power_losses`` do not run here: the ``chaos`` command
refuses them, and ``python -m repro.bench crash`` runs them through the
crash-consistency harness in :mod:`repro.bench.crash`, which cuts the
simulation mid-flight, runs the recovery scan, and verdicts
RECOVERED / DATA-LOSS / CORRUPTION instead of the degraded-latency
report below.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench import verdicts
from repro.bench.experiments import ReplayConfig, replay
from repro.bench.record import RunRecord
from repro.faults.latent import LatentStats
from repro.faults.plan import FaultPlan
from repro.flash.introspect import ssds_served
from repro.flash.raid import RAIS5, ArrayStats
from repro.flash.scrub import ScrubConfig
from repro.traces.workloads import make_workload

__all__ = ["run_chaos", "render"]

SCHEME = "EDC"


def render(record: RunRecord) -> str:
    """BENCH-style text report of a ``chaos`` record."""
    sc, r, sec = record.scenario, record.results, record.sections
    f = sec["faults"]
    ms = 1e3
    lines = [
        f"chaos replay: {sc['trace']} x {sc['scheme']} "
        f"({sc['backend']}), {r['n_requests']} requests over "
        f"{sc['duration_s']:.0f}s virtual",
        f"  mean response {r['mean_response_s'] * ms:.3f} ms "
        f"(p95 {r['p95_response_s'] * ms:.3f}, "
        f"p99 {r['p99_response_s'] * ms:.3f})",
        f"  read faults:  {f['read_faults']} injected, "
        f"{f['read_retries']} retries, "
        f"{f['reads_recovered']} recovered, "
        f"{f['reads_unrecovered']} exhausted",
        f"  bad blocks:   {f['program_faults']} program faults, "
        f"{r['retired_blocks']} blocks retired "
        f"({r['retired_bytes']} bytes of capacity)",
        f"  spikes:       {f['latency_spikes']} latency spikes",
    ]
    if r["member_failures"] or sc["backend"] == "rais5":
        lines.append(
            f"  array:        {f['device_failures']} device "
            f"failures, {r['member_failures']} absorbed; "
            f"{r['rebuilds']} rebuilds ({r['rebuilt_rows']} rows); "
            f"{r['degraded_reads']} reconstructed reads, "
            f"{r['degraded_writes']} degraded writes"
        )
        lines.append(
            f"  degraded:     {r['degraded_time_s']:.3f}s over "
            f"{len(sec['degraded_windows'])} window(s)"
            + ("  [STILL DEGRADED]" if r["still_degraded"] else "")
        )
        if r["degraded_samples"]:
            lines.append(
                f"  degraded lat: n={r['degraded_samples']}, "
                f"mean {r['degraded_mean_s'] * ms:.3f} ms, "
                f"p50 {r['degraded_p50_s'] * ms:.3f}, "
                f"p95 {r['degraded_p95_s'] * ms:.3f}, "
                f"p99 {r['degraded_p99_s'] * ms:.3f}"
            )
    if "latent" in sec:
        la = sec["latent"]
        lines.append(
            f"  latent:       {la['retention_events']} retention "
            f"drops, {la['disturb_events']} read-disturb "
            f"corruptions, {la['corrupted_extents']} extents "
            f"corrupted, {r['residual_corrupt']} still corrupt at end; "
            f"{r['corrupt_reads']} host reads hit corrupt media"
        )
    if "scrub" in sec:
        st = sec["scrub"]["stats"]
        lines.append(
            f"  scrub:        {st['scanned']} entries verified "
            f"({st['verify_bytes']} bytes), "
            f"{st['corrupt_found']} corrupt found, "
            f"{st['parity_repairs']} parity repairs, "
            f"{st['blocks_retired']} blocks retired, "
            f"{st['unrepairable']} unrepairable"
        )
    lines.append(
        f"  losses:       {r['data_loss_events']} unrecovered "
        f"(edc reads {r['edc_unrecovered_reads']}, "
        f"edc writes {r['edc_unrecovered_writes']}, "
        f"array {r['array_unrecovered']}); "
        f"{r['codec_fallbacks']} codec fallbacks to raw"
    )
    lines.append(
        "  verdict:      "
        + (f"{record.verdict} (zero data loss, array healthy)" if record.ok
           else record.verdict)
    )
    return "\n".join(lines)


def run_chaos(
    plan: FaultPlan,
    trace_name: str = "Fin1",
    backend: str = "rais5",
    duration: float = 20.0,
    sampler=None,
    scrub_interval: Optional[float] = None,
) -> RunRecord:
    """Replay one canonical trace under ``plan`` and grade the recovery.

    ``sampler`` optionally attaches a
    :class:`~repro.telemetry.TimeSeriesSampler`, whose vocabulary gains
    the ``faults.*`` / ``array.*`` families on fault-injected runs.

    ``scrub_interval`` (seconds between sweep ticks) arms the online
    media scrubber for the replay.  After the trace drains, the
    harness grants the scrubber a bounded *idle window* — extra
    simulated time with no host I/O — so in-flight repairs complete and
    late-injected latent errors are swept, exactly as a real scrubber
    catches up during idle.  Corruption still on media after that
    window (or that a host read ever hit) verdicts CORRUPTION.

    The ``chaos`` record: ``results`` carries the request latencies,
    the loss and degradation counters and the degraded-window latency
    percentiles; ``sections`` has ``faults`` (aggregated
    :class:`~repro.faults.FaultStats`), ``degraded_windows``, and —
    when the run had them — ``latent`` (aggregated
    :class:`~repro.faults.LatentStats`) and ``scrub``
    (:meth:`MediaScrubber.to_dict <repro.flash.scrub.MediaScrubber.to_dict>`).
    ``live`` holds the ``device`` and the ``result``
    (:class:`~repro.bench.experiments.ExperimentResult`).
    """
    cfg = ReplayConfig(backend=backend)
    scrub = (
        ScrubConfig(interval_s=scrub_interval)
        if scrub_interval is not None else None
    )
    trace = make_workload(trace_name, duration=duration)

    # Timestamp every request completion so latencies can be classified
    # into degraded windows after the run.
    stamped: List[Tuple[float, float]] = []
    ctx: Dict[str, object] = {}

    def _on_built(sim, device, built_backend, devices) -> None:
        ctx["sim"] = sim
        ctx["device"] = device
        ctx["backend"] = built_backend
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
        trace, SCHEME, cfg, sampler=sampler, fault_plan=plan,
        on_built=_on_built, scrub=scrub,
    )

    device = ctx["device"]
    built_backend = ctx["backend"]
    # Every SSD that served: the members as built (one swapped out by a
    # rebuild keeps the retirements it performed in service), then the
    # spares that took their slots.
    served = ssds_served(built_backend)
    faults = plan.total_stats([ssd.injector for ssd in served]).as_dict()

    # Idle scrub window: the trace has drained, but the scrubber keeps
    # sweeping during idle.  Fault generation is quiesced first (the
    # host is gone; new retention/disturb strikes during the drain
    # would race the repair forever), then short foreground no-ops are
    # anchored so daemon ticks keep firing, until media is clean or the
    # round budget runs out (unrepairable extents stay corrupt forever
    # — bounded by the no-progress breaker).
    scrubber = device.observers.get("scrubber")
    latent_models = [ssd.latent for ssd in served if ssd.latent is not None]
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

    sections: Dict[str, object] = {"faults": faults}
    residual_corrupt = 0
    if latent_models:
        agg = {name: 0 for name in LatentStats.FIELDS}
        for model in latent_models:
            for k, v in model.stats.as_dict().items():
                agg[k] += v
            residual_corrupt += model.corrupt_count
        sections["latent"] = agg
    if scrubber is not None:
        sections["scrub"] = scrubber.to_dict()

    # RAIS5 accounting (zeros and no windows on a single-SSD backend).
    if isinstance(built_backend, RAIS5):
        astats = built_backend.stats
        still_degraded = built_backend.degraded
        degraded_windows = built_backend.degraded_windows
    else:
        astats, still_degraded, degraded_windows = ArrayStats(), False, []
    array = {
        "member_failures": astats.member_failures,
        "rebuilds": astats.rebuilds,
        "rebuilt_rows": astats.rebuilt_rows,
        "degraded_reads": astats.degraded_reads,
        "degraded_writes": astats.degraded_writes,
        "array_unrecovered": (
            astats.unrecovered_reads + astats.unrecovered_writes
        ),
    }
    end_of_run = ctx["sim"].now
    windows = [
        (start, end if end is not None else end_of_run)
        for start, end in degraded_windows
    ]
    sections["degraded_windows"] = windows

    # Latency of the requests completed inside a degraded window
    # (all zero when there is none).
    import numpy as np

    deg = [
        v for t, v in stamped
        if any(start <= t <= end for start, end in windows)
    ]
    arr = np.asarray(deg or [0.0])
    p50, p95, p99 = (float(x) for x in np.percentile(arr, (50, 95, 99)))

    scrub_unrepairable = (
        scrubber.stats.unrepairable if scrubber is not None else 0
    )
    data_loss_events = (
        faults["reads_unrecovered"]
        + device.unrecovered_reads
        + device.unrecovered_writes
        + array["array_unrecovered"]
    )
    return RunRecord(
        kind="chaos",
        scenario={
            "trace": trace_name,
            "scheme": SCHEME,
            "backend": backend,
            "duration_s": duration,
            "scrub_interval_s": scrub_interval,
            "plan": plan.to_dict(),
        },
        results={
            "n_requests": result.n_requests,
            "mean_response_s": result.mean_response,
            "p95_response_s": result.p95_response,
            "p99_response_s": result.p99_response,
            "retired_blocks": sum(ssd.ftl.retired_blocks for ssd in served),
            "retired_bytes": device.allocator.stats.retired_bytes,
            "edc_unrecovered_reads": device.unrecovered_reads,
            "edc_unrecovered_writes": device.unrecovered_writes,
            "codec_fallbacks": device.stats.codec_fallbacks,
            **array,
            "still_degraded": still_degraded,
            "degraded_time_s": sum(end - start for start, end in windows),
            "degraded_samples": len(deg),
            "degraded_mean_s": float(arr.mean()),
            "degraded_p50_s": p50,
            "degraded_p95_s": p95,
            "degraded_p99_s": p99,
            "data_loss_events": data_loss_events,
            "corrupt_reads": device.corrupt_reads,
            "residual_corrupt": residual_corrupt,
        },
        sections=sections,
        # Corruption dominates: a host read served off corrupt media, an
        # extent the scrubber could not repair, or corruption still
        # sitting on media at end of run all mean the stack returned (or
        # would return) wrong bytes.
        verdict=verdicts.grade(
            corruption=(device.corrupt_reads or residual_corrupt
                        or scrub_unrepairable),
            data_loss=data_loss_events,
            degraded=still_degraded,
        ),
        live={"device": device, "result": result},
    )
