"""Regenerate the paper's evaluation from the command line.

Usage::

    python -m repro.bench                 # everything (several minutes)
    python -m repro.bench fig1 fig2       # selected exhibits
    python -m repro.bench --duration 60   # shorter replays
    python -m repro.bench --telemetry     # add the per-layer breakdown
    python -m repro.bench --metrics       # add the time-series dashboard
    python -m repro.bench --telemetry --metrics   # one replay, both reports
    python -m repro.bench breakdown --trace-dump spans.jsonl
    python -m repro.bench --metrics --series-dump ts.jsonl --prom-dump metrics.prom
    python -m repro.bench --audit --shadow lzf,gzip --audit-dump audit.jsonl
    python -m repro.bench --health --health-dump health.json   # device health
    python -m repro.bench --chaos benchmarks/chaos_fin1.json   # fault-injected replay
    python -m repro.bench --chaos benchmarks/latent_fin1.json --scrub-interval 0.005 --record run.json
    python -m repro.bench --cluster --trace --trace-dump trace.json --alerts

Exhibit names: fig1 fig2 fig3 table1 table2 fig8 fig9 fig10 fig11 fig12
breakdown.  ``fig8``-``fig10`` share one single-SSD replay matrix;
``fig11`` runs the RAIS5 matrix.  ``breakdown`` (also enabled by
``--telemetry`` and/or ``--metrics``) replays Fin1 under EDC with the
requested instrumentation attached — both flags share one device and
one replay.  ``--telemetry`` prints the per-layer latency breakdown,
histogram quantiles and an ASCII flamegraph (``--trace-dump PATH``
additionally writes the span trace as JSON lines); ``--metrics``
samples the time-series vocabulary every 0.25 simulated seconds and
prints the ASCII dashboard with band-switch markers (``--series-dump
PATH`` writes the ring series as JSON lines, ``--prom-dump PATH``
writes a Prometheus-style exposition snapshot); ``--audit`` attaches
the decision auditor (``--shadow`` names comma-separated counterfactual
policies, ``--audit-dump PATH`` writes the audit trail as JSON lines
for ``python -m repro.bench.diff``) and prints the per-band regret
table.  All three flags compose over the same single replay.

``--chaos`` and ``--cluster`` are graded runs: the exit status is the
verdict (0 RECOVERED, 1 DEGRADED, 2 DATA-LOSS, 3 CORRUPTION) and
``--record PATH`` writes the run record.  Plans are validated and every
dump target is opened before the replay; a command refused there exits
64 (:data:`repro.bench.verdicts.USAGE_ERROR`).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import Callable, Dict, Optional, Sequence, TextIO, Tuple

from repro.bench.figures import (
    fig1_request_size_latency,
    fig2_codec_efficiency,
    fig3_burstiness,
    fig8_to_11_matrix,
    fig12_threshold_sensitivity,
    table1_setup,
    table2_workloads,
)
from repro.bench.ascii import grouped_bar_chart, line_sketch
from repro.bench.report import render_series, render_table, render_telemetry
from repro.bench.verdicts import USAGE_ERROR

ALL = ("fig1", "fig2", "fig3", "table1", "table2", "fig8", "fig9", "fig10",
       "fig11", "fig12", "breakdown")
SCHEMES = ("Native", "Lzf", "Gzip", "Bzip2", "EDC")

#: every option naming a file this command writes
DUMP_FLAGS = ("trace_dump", "series_dump", "prom_dump", "audit_dump",
              "health_dump", "record")

#: one dump: the open target (``None`` = not asked for) and the writer,
#: which gets the run's outcome and returns the line to print
Dump = Tuple[Optional[TextIO], Callable[[TextIO, object], str]]


class _Parser(argparse.ArgumentParser):
    """Usage errors exit :data:`USAGE_ERROR`: 0-3 are verdicts only."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _open_dumps(stack: contextlib.ExitStack, args) -> Dict[str, TextIO]:
    """Open every dump target the command line names.

    The only place this command opens a file for writing, and it runs
    before any replay: a bad path costs nothing and cannot be mistaken
    for a verdict.
    """
    return {
        flag: stack.enter_context(
            open(getattr(args, flag), "w", encoding="utf-8")
        )
        for flag in DUMP_FLAGS if getattr(args, flag)
    }


def _emit(run: Callable[[], object], render: Callable[[object], str],
          dumps: Sequence[Dump]):
    """Run, print the report, write the dumps: the one emit path."""
    out = run()
    print()
    print(render(out))
    for fp, write in dumps:
        if fp is not None:
            print(write(fp, out))
    return out


def _record_dump(fps: Dict[str, TextIO]) -> Dump:
    def write(fp: TextIO, record) -> str:
        fp.write(record.to_json())
        return f"\nwrote the run record to {fp.name}"

    return fps.get("record"), write


def _series_dump(fps: Dict[str, TextIO], sampler) -> Dump:
    from repro.telemetry import dump_timeseries_jsonl

    def write(fp: TextIO, _) -> str:
        return (f"\nwrote {dump_timeseries_jsonl(sampler, fp)} "
                f"series/marker lines to {fp.name}")

    return fps.get("series_dump"), write


def _prom_dump(fps: Dict[str, TextIO], sources: Callable[[object], dict],
               lead: str = "") -> Dump:
    """The exposition snapshot of ``render_exposition(**sources(out))``.

    ``lead`` keeps each mode's line where it has always been: the chaos
    report sets it off with a blank line, the others do not.
    """
    from repro.telemetry import render_exposition

    def write(fp: TextIO, out) -> str:
        text = render_exposition(**sources(out))
        fp.write(text)
        return (f"{lead}wrote {len(text.splitlines())} exposition lines "
                f"to {fp.name}")

    return fps.get("prom_dump"), write


def _run_breakdown(args, fps: Dict[str, TextIO]) -> int:
    """Replay Fin1 under EDC once, with whichever instrumentation was asked.

    ``--telemetry``, ``--metrics``, ``--audit`` and ``--health`` compose
    here: one device, one replay, and each flag only adds its report
    over the shared run.  ``--health`` additionally *gates*: the space
    waterfall's conservation invariant is verified after the replay and
    a violation makes the exit code non-zero.
    """
    from repro.bench.experiments import replay
    from repro.bench.report import render_audit
    from repro.flash.introspect import SpaceAccountingError
    from repro.sim.engine import Simulator
    from repro.telemetry import (
        DecisionAuditor,
        DeviceHealth,
        Telemetry,
        TimeSeriesSampler,
        dump_audit_jsonl,
        dump_health_json,
        dump_jsonl,
        parse_shadow_spec,
        render_dashboard,
    )
    from repro.traces.workloads import make_workload

    # Explicit `breakdown` exhibit without flags keeps the old
    # telemetry-only behaviour; --metrics alone skips the span
    # machinery it doesn't need.
    telemetry = (
        Telemetry(Simulator())
        if args.telemetry or args.trace_dump or not args.metrics else None
    )
    sampler = (
        TimeSeriesSampler() if args.metrics or args.series_dump else None
    )
    auditor = (
        DecisionAuditor(shadows=parse_shadow_spec(args.shadow))
        if args.audit or args.audit_dump else None
    )
    health = DeviceHealth() if args.health or args.health_dump else None
    # flag name -> (observer, its report), for the ones asked for
    active = {
        name: pair for name, pair in (
            ("telemetry", (telemetry, render_telemetry)),
            ("metrics", (sampler, render_dashboard)),
            ("audit", (auditor, render_audit)),
            ("health", (health, DeviceHealth.render)),
        ) if pair[0] is not None
    }

    def run():
        trace = make_workload("Fin1", duration=args.duration)
        return replay(trace, "EDC", telemetry=telemetry, sampler=sampler,
                      auditor=auditor, health=health)

    def render(result) -> str:
        return "\n\n".join(
            [f"{'+'.join(active)}: Fin1 x EDC, {result.n_requests} "
             f"requests, mean response {result.mean_response * 1e3:.3f} ms"]
            + [report(observer) for observer, report in active.values()]
        )

    def write_trace(fp, _) -> str:
        return f"\nwrote {dump_jsonl(telemetry.tracer, fp)} spans to {fp.name}"

    def write_audit(fp, _) -> str:
        return (f"\nwrote {dump_audit_jsonl(auditor, fp)} audit lines to "
                f"{fp.name} (diff with: python -m repro.bench.diff)")

    def write_health(fp, _) -> str:
        dump_health_json(health, fp)
        return f"\nwrote device-health report to {fp.name}"

    try:
        _emit(run, render, [
            (fps.get("trace_dump"), write_trace),
            _series_dump(fps, sampler),
            (fps.get("audit_dump"), write_audit),
            (fps.get("health_dump"), write_health),
            _prom_dump(fps, lambda _: {
                "metrics": telemetry.metrics if telemetry is not None else None,
                "sampler": sampler,
            }),
        ])
    except SpaceAccountingError as exc:
        print(f"HEALTH FAIL: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_cluster(args, plan, fps: Dict[str, TextIO]) -> int:
    """Run the sharded fleet exhibit; the exit code is the verdict.

    With a ``plan`` the run becomes the fleet chaos harness.  A broken
    run invariant (lost write, stuck migration, inconsistent SLO
    accounting, critical-path violation) grades at least DEGRADED.
    """
    from repro.bench import cluster
    from repro.telemetry import (
        BurnRateEngine,
        TimeSeriesSampler,
        dump_chrome_trace,
        render_dashboard,
    )

    with_trace = args.trace or "trace_dump" in fps
    sampler = (
        TimeSeriesSampler()
        if args.metrics or args.alerts or "series_dump" in fps
        or "prom_dump" in fps else None
    )
    engine = BurnRateEngine() if args.alerts else None

    def run():
        mode = " + tracing" if with_trace else ""
        mode += " + burn-rate alerts" if args.alerts else ""
        work = "one live migration"
        if plan is not None:
            work = "fleet chaos"
            mode += (
                f" under chaos plan {args.cluster_chaos} "
                f"(rf={args.cluster_replication}, "
                f"quorum={args.cluster_quorum}, "
                f"{len(plan.device_failures)} scheduled shard failure(s))"
            )
        print(f"cluster: {args.cluster_shards} shards x "
              f"{args.cluster_tenants} tenants, "
              f"{args.cluster_requests} requests/tenant, {work}{mode}...")
        return cluster.run_cluster(
            n_shards=args.cluster_shards, n_tenants=args.cluster_tenants,
            max_requests=args.cluster_requests, sampler=sampler,
            trace=with_trace, alerts=engine,
            fault_plan=plan, replication_factor=args.cluster_replication,
            quorum=args.cluster_quorum, hedge_reads=args.cluster_hedge,
        )

    def render(record) -> str:
        text = cluster.render(record)
        if args.metrics:
            text += "\n\n" + render_dashboard(sampler, alerts=engine)
        return text

    def write_trace(fp, record) -> str:
        n = dump_chrome_trace(record.live["tracing"].tracer, fp)
        return (f"\nwrote {n} trace events to {fp.name} "
                f"(chrome://tracing / Perfetto)")

    def exposition_sources(record) -> dict:
        tracing = record.live["tracing"]
        return {"sampler": sampler, "exemplars": (
            tracing.exposition_exemplars() if tracing is not None else None
        )}

    return _emit(run, render, [
        _record_dump(fps),
        (fps.get("trace_dump"), write_trace),
        _series_dump(fps, sampler),
        _prom_dump(fps, exposition_sources),
    ]).exit_code


def _run_chaos(args, plan, fps: Dict[str, TextIO]) -> int:
    """Replay one trace under a fault plan; the exit code is the verdict.

    Plans that schedule ``power_loss`` events route to the crash-chaos
    harness: the replay is cut at each instant, recovery is scanned and
    verified, and the same :mod:`repro.bench.verdicts` mapping applies.
    ``--scrub-interval`` arms the online media scrubber so latent
    retention / read-disturb corruption is repaired in-band.
    """
    from repro.bench import chaos, crash
    from repro.telemetry import TimeSeriesSampler

    where = (f"replaying {args.chaos_trace} under {args.chaos} "
             f"({args.chaos_backend}, duration {args.duration:.0f}s")
    if plan.power_losses:
        def run():
            print(f"crash chaos: {where}, "
                  f"{len(plan.power_losses)} power cut(s))...")
            return crash.run_crash_chaos(
                plan, trace_name=args.chaos_trace,
                backend=args.chaos_backend, duration=args.duration,
            )

        return _emit(run, crash.render, [_record_dump(fps)]).exit_code

    sampler = TimeSeriesSampler()

    def run():
        scrubbed = (f", scrub every {args.scrub_interval}s"
                    if args.scrub_interval is not None else "")
        print(f"chaos: {where}{scrubbed})...")
        return chaos.run_chaos(
            plan, trace_name=args.chaos_trace, backend=args.chaos_backend,
            duration=args.duration, sampler=sampler,
            scrub_interval=args.scrub_interval,
        )

    return _emit(run, chaos.render, [
        _record_dump(fps),
        _prom_dump(fps, lambda _: {"sampler": sampler}, lead="\n"),
    ]).exit_code


def _print_matrix(matrix, metric: str, title: str) -> None:
    norm = matrix.normalized(metric)
    traces = list(norm)
    print(render_series(
        "trace", traces,
        {s: [norm[t][s] for t in traces] for s in SCHEMES},
        title=title,
    ))
    print()
    print(grouped_bar_chart(
        {t: {s: norm[t][s] for s in SCHEMES} for t in traces}, width=32,
    ))
    print()


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="python -m repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("exhibits", nargs="*", default=[],
                        help=f"which exhibits to run (default: all of {ALL})")
    parser.add_argument("--duration", type=float, default=100.0,
                        help="virtual seconds per replayed trace (default 100)")
    parser.add_argument("--telemetry", action="store_true",
                        help="also run the 'breakdown' exhibit: per-layer "
                             "latency breakdown of a Fin1 EDC replay")
    parser.add_argument("--metrics", action="store_true",
                        help="also run the 'breakdown' exhibit with the "
                             "time-series sampler: ASCII dashboard with "
                             "band-switch markers (composes with "
                             "--telemetry over one shared replay)")
    parser.add_argument("--trace-dump", metavar="PATH", default=None,
                        help="with telemetry, write the span trace as "
                             "JSON lines to PATH")
    parser.add_argument("--series-dump", metavar="PATH", default=None,
                        help="with --metrics, write the sampled time "
                             "series as JSON lines to PATH")
    parser.add_argument("--prom-dump", metavar="PATH", default=None,
                        help="write a Prometheus-style exposition snapshot "
                             "of the instrumented replay to PATH")
    parser.add_argument("--audit", action="store_true",
                        help="also run the 'breakdown' exhibit with the "
                             "decision auditor: per-band regret table vs "
                             "shadow policies (composes with --telemetry "
                             "and --metrics over one shared replay)")
    parser.add_argument("--shadow", metavar="SPEC", default="lzf,gzip",
                        help="comma-separated shadow policies for --audit "
                             "(native, lzf, gzip, bzip2, edc; "
                             "default lzf,gzip)")
    parser.add_argument("--audit-dump", metavar="PATH", default=None,
                        help="with --audit, write the decision-audit "
                             "trail as JSON lines to PATH (compare runs "
                             "with python -m repro.bench.diff)")
    parser.add_argument("--health", action="store_true",
                        help="also run the 'breakdown' exhibit with "
                             "device-health introspection: SMART page, "
                             "space-efficiency waterfall (gated on its "
                             "conservation invariant), GC episode audit "
                             "and LBA temperature heatmap (composes with "
                             "--telemetry/--metrics/--audit over one "
                             "shared replay)")
    parser.add_argument("--health-dump", metavar="PATH", default=None,
                        help="with --health, write the device-health "
                             "report as JSON to PATH")
    parser.add_argument("--chaos", metavar="PLAN.json", default=None,
                        help="replay one trace under the JSON fault plan "
                             "and report recovered vs lost requests; the "
                             "exit code is the unified verdict (0 "
                             "RECOVERED, 1 DEGRADED, 2 DATA-LOSS, 3 "
                             "CORRUPTION). Plans with power_loss events "
                             "run the crash-chaos harness instead (ssd "
                             "backend only), same verdict mapping")
    parser.add_argument("--chaos-trace", default="Fin1",
                        help="trace for --chaos (default Fin1)")
    parser.add_argument("--chaos-backend", default="rais5",
                        choices=("ssd", "rais5"),
                        help="backend for --chaos (default rais5)")
    parser.add_argument("--scrub-interval", type=float, default=None,
                        metavar="S",
                        help="with --chaos, arm the online media scrubber "
                             "with a sweep tick every S virtual seconds: "
                             "latent retention / read-disturb corruption "
                             "is CRC-detected and self-healed from parity "
                             "through the normal device path")
    parser.add_argument("--record", metavar="PATH", default=None,
                        help="with --chaos or --cluster, write the run "
                             "record (inputs, results, evidence sections "
                             "such as the scrub audit or the per-shard "
                             "SMART rollups, failures, verdict, exit "
                             "code) as JSON to PATH")
    parser.add_argument("--cluster", action="store_true",
                        help="run the sharded multi-tenant fleet exhibit: "
                             "consistent-hash routing, QoS admission, one "
                             "live range migration under load; exits 1 "
                             "(DEGRADED) on lost acked writes or SLO-accounting "
                             "inconsistencies (--metrics adds the cluster.* "
                             "time-series families, --series-dump/--prom-dump "
                             "apply)")
    parser.add_argument("--cluster-shards", type=int, default=4,
                        help="shards in the --cluster fleet (default 4)")
    parser.add_argument("--cluster-tenants", type=int, default=8,
                        help="tenants in the --cluster fleet (default 8)")
    parser.add_argument("--cluster-requests", type=int, default=1500,
                        help="requests per tenant stream for --cluster "
                             "(default 1500)")
    parser.add_argument("--cluster-chaos", metavar="PLAN.json", default=None,
                        help="with --cluster, run the fleet chaos harness: "
                             "arm the plan's scheduled device_failures "
                             "(device names shard0..N-1) against the fleet, "
                             "replicate ranges --cluster-replication ways, "
                             "and grade the post-run durability audit. "
                             "Exit 0 RECOVERED, 1 DEGRADED, 2 DATA-LOSS, "
                             "3 CORRUPTION")
    parser.add_argument("--cluster-replication", type=int, default=1,
                        metavar="N",
                        help="replicas per LBA range for --cluster "
                             "(default 1 = no replication)")
    parser.add_argument("--cluster-quorum", default="majority",
                        choices=("one", "majority", "all"),
                        help="write-ack quorum for --cluster-replication "
                             "(default majority)")
    parser.add_argument("--cluster-hedge", action="store_true",
                        help="with --cluster-replication > 1, hedge reads "
                             "to a second replica at the tenant's observed "
                             "p95 latency")
    parser.add_argument("--trace", action="store_true",
                        help="with --cluster, run under distributed "
                             "tracing: one causal trace per tenant request "
                             "across admission, shard splits, device layers "
                             "and migration I/O; prints the critical-path "
                             "attribution and fails the run on any "
                             "conservation violation (--trace-dump PATH "
                             "then writes a Chrome trace-event / Perfetto "
                             "JSON file)")
    parser.add_argument("--alerts", action="store_true",
                        help="with --cluster, ride a multi-window SLO "
                             "burn-rate alert engine on the metrics "
                             "sampler and print fire/clear transitions "
                             "(implies a sampler; composes with --metrics)")
    args = parser.parse_args(argv)
    if args.cluster_chaos and not args.cluster:
        parser.error("--cluster-chaos requires --cluster")
    if args.record and not (args.chaos or args.cluster):
        parser.error("--record needs a graded run (--chaos or --cluster)")
    if args.health_dump and args.cluster:
        parser.error("--health-dump belongs to the breakdown exhibit; the "
                     "per-shard SMART rollups are in --record")
    instrumented = (args.telemetry or args.metrics or bool(args.prom_dump)
                    or args.audit or bool(args.audit_dump)
                    or args.health or bool(args.health_dump))
    wanted = tuple(args.exhibits) or (ALL[:-1] if not instrumented else ALL)
    if instrumented and "breakdown" not in wanted:
        wanted = wanted + ("breakdown",)
    unknown = set(wanted) - set(ALL)
    if unknown:
        parser.error(f"unknown exhibits: {sorted(unknown)}; known: {ALL}")

    from repro.faults import FaultPlan

    with contextlib.ExitStack() as stack:
        # Everything that can refuse the command line happens here,
        # before any replay; nothing raised later is a usage error.
        try:
            plan_path = args.cluster_chaos if args.cluster else args.chaos
            plan = FaultPlan.from_json(plan_path) if plan_path else None
            if plan is not None and plan.power_losses:
                if args.cluster:
                    raise ValueError(
                        "power_loss events belong to the crash harness "
                        "(--chaos), not the fleet chaos harness"
                    )
                if args.chaos_backend != "ssd":
                    raise ValueError(
                        "crash chaos (a plan with power_losses) supports "
                        "only --chaos-backend ssd"
                    )
            fps = _open_dumps(stack, args)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        return _run(args, plan, fps, wanted)


def _run(args, plan, fps: Dict[str, TextIO], wanted) -> int:
    if args.cluster:
        return _run_cluster(args, plan, fps)
    if args.chaos:
        return _run_chaos(args, plan, fps)

    t0 = time.time()
    ssd_matrix = None
    if {"fig8", "fig9", "fig10"} & set(wanted):
        print(f"running the single-SSD scheme x trace matrix "
              f"(duration {args.duration:.0f}s per trace)...")
        ssd_matrix = fig8_to_11_matrix(backend="ssd", duration=args.duration)

    for name in wanted:
        if name == "fig1":
            d = fig1_request_size_latency()
            print(render_series("size_kb", d["size_kb"],
                                {"read_ms": d["read_ms"], "write_ms": d["write_ms"]},
                                title="Fig 1: response time vs request size"))
        elif name == "fig2":
            rows = fig2_codec_efficiency()
            print(render_table(
                ["dataset", "codec", "C_Ratio", "C_Speed", "D_Speed"],
                [[r.dataset, r.codec, r.ratio, r.compress_mb_s, r.decompress_mb_s]
                 for r in rows],
                title="Fig 2: codec efficiency"))
        elif name == "fig3":
            for wname, (times, rates) in fig3_burstiness().items():
                idle = (rates < 0.05 * max(rates.max(), 1.0)).mean()
                print(f"Fig 3 [{wname}]: mean {rates.mean():.0f}, "
                      f"peak {rates.max():.0f} calc-IOPS, "
                      f"idle bins {idle:.0%}")
        elif name == "table1":
            print(render_table(["item", "value"], table1_setup(),
                               title="Table I: experimental setup"))
        elif name == "table2":
            rows = table2_workloads()
            print(render_table(
                ["trace", "requests", "write_ratio", "raw_iops", "avg_req_kb"],
                [[r["trace"], r["requests"], r["write_ratio"], r["raw_iops"],
                  r["avg_req_kb"]] for r in rows],
                title="Table II: workload characteristics"))
        elif name == "fig8":
            _print_matrix(ssd_matrix, "compression_ratio",
                          "Fig 8: compression ratio vs Native")
        elif name == "fig9":
            _print_matrix(ssd_matrix, "composite",
                          "Fig 9: ratio/response-time vs Native")
        elif name == "fig10":
            _print_matrix(ssd_matrix, "mean_response",
                          "Fig 10: response time vs Native (single SSD)")
        elif name == "fig11":
            print(f"running the RAIS5 matrix (duration {args.duration:.0f}s)...")
            m = fig8_to_11_matrix(backend="rais5", duration=args.duration)
            _print_matrix(m, "mean_response",
                          "Fig 11: response time vs Native (RAIS5)")
        elif name == "breakdown":
            print(f"running the instrumented replay "
                  f"(duration {args.duration:.0f}s)...")
            rc = _run_breakdown(args, fps)
            if rc:
                return rc
        elif name == "fig12":
            pts = fig12_threshold_sensitivity(duration=args.duration)
            print(render_table(
                ["threshold", "gzip share", "ratio", "resp ms"],
                [[p.threshold_iops, p.gzip_share, p.compression_ratio,
                  p.mean_response * 1e3] for p in pts],
                title="Fig 12: sensitivity to the Gzip threshold (Fin2)"))
            print()
            print(line_sketch(
                [p.gzip_share for p in pts],
                [p.mean_response * 1e3 for p in pts],
                title="Fig 12 sketch: response time vs gzip share",
                x_label="gzip share", y_label="resp ms",
            ))
        print()
    print(f"done in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
