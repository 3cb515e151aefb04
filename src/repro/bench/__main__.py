"""Regenerate the paper's evaluation from the command line.

Usage::

    python -m repro.bench exhibit               # all ten exhibits (several minutes)
    python -m repro.bench exhibit fig1 fig2 --duration 60
    python -m repro.bench breakdown             # per-layer latency breakdown
    python -m repro.bench breakdown --telemetry --metrics   # one replay, both reports
    python -m repro.bench breakdown --trace-dump spans.jsonl
    python -m repro.bench breakdown --metrics --series-dump ts.jsonl --prom-dump metrics.prom
    python -m repro.bench breakdown --audit --shadow lzf,gzip --audit-dump audit.jsonl
    python -m repro.bench breakdown --health --health-dump health.json
    python -m repro.bench chaos benchmarks/chaos_fin1.json
    python -m repro.bench chaos benchmarks/latent_fin1.json --scrub-interval 0.005 --record run.json
    python -m repro.bench crash benchmarks/crash_fin1.json --duration 12
    python -m repro.bench cluster --trace --trace-dump trace.json --alerts
    python -m repro.bench cluster --chaos benchmarks/cluster_chaos.json --replication 2
    python -m repro.bench regress --traces Fin1
    python -m repro.bench diff A.jsonl B.jsonl

Each paper exhibit is a row of :data:`repro.bench.figures.EXHIBITS`,
which says what it computes and prints; ``fig8``-``fig10`` share one
single-SSD replay matrix, and at the default ``--duration`` an exhibit
prints its EXPERIMENTS.md block.

``chaos``, ``crash`` and ``cluster`` are graded runs: the exit status is
the verdict (0 RECOVERED, 1 DEGRADED, 2 DATA-LOSS, 3 CORRUPTION) and
``--record PATH`` writes the run record.  ``regress`` exits 1 on a
regression, ``diff`` on a policy shift.  Every command reads its inputs
and opens every file it writes before the run starts; a command refused
there exits 64 (:data:`repro.bench.verdicts.USAGE_ERROR`).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import Callable, Dict, Optional, Sequence, TextIO, Tuple

from repro.bench.diff import (
    DEFAULT_MAX_LATENCY_DELTA,
    DEFAULT_MAX_RATIO_DELTA,
    DEFAULT_MAX_SHIFT,
)
from repro.bench.figures import DURATION, EXHIBITS
from repro.bench.regress import CANONICAL_TRACES
from repro.bench.report import render_telemetry
from repro.bench.verdicts import USAGE_ERROR
from repro.traces.workloads import WORKLOADS

#: every option naming a file this command writes
DUMP_FLAGS = ("trace_dump", "series_dump", "prom_dump", "audit_dump",
              "health_dump", "record")

#: one dump: the open target (``None`` = not asked for) and the writer,
#: which gets the run's outcome and returns the line to print
Dump = Tuple[Optional[TextIO], Callable[[TextIO, object], str]]

#: a checked command: calling it runs the command and returns the status
Run = Callable[[], int]

#: options more than one sub-command takes
SHARED = {
    "--duration": dict(type=float, default=DURATION,
                       help="virtual seconds per replayed trace "
                            "(default %(default)g)"),
    "--metrics": dict(action="store_true",
                      help="sample the time-series vocabulary and print "
                           "the ASCII dashboard"),
    "--series-dump": dict(metavar="PATH",
                          help="write the sampled time series as JSON "
                               "lines to PATH"),
    "--prom-dump": dict(metavar="PATH",
                        help="write a Prometheus-style exposition "
                             "snapshot to PATH"),
    "--record": dict(metavar="PATH",
                     help="write the run record (inputs, results, "
                          "evidence, failures, verdict, exit code) as "
                          "JSON to PATH"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit :data:`USAGE_ERROR`: 0-3 are verdicts only."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _open_dumps(stack: contextlib.ExitStack, args) -> Dict[str, TextIO]:
    """Open every dump target the command line names.

    The only place a dump target is opened, and it runs before any
    replay: a bad path costs nothing and cannot be mistaken for a
    verdict.
    """
    return {
        flag: stack.enter_context(
            open(getattr(args, flag), "w", encoding="utf-8")
        )
        for flag in DUMP_FLAGS if getattr(args, flag, None)
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


def _plan(path: str, cuts: bool):
    """The fault plan at ``path``; power cuts belong to ``crash`` alone."""
    from repro.faults import FaultPlan

    plan = FaultPlan.from_json(path)
    if cuts and not plan.power_losses:
        raise ValueError(f"{path} schedules no power_loss event to cut at")
    if plan.power_losses and not cuts:
        raise ValueError(f"{path} schedules power_loss events: replay it "
                         "with the crash command")
    return plan


def _exhibit(args, fps) -> Run:
    """Print paper exhibits: the named EXHIBITS rows, or all ten."""
    unknown = set(args.names) - set(EXHIBITS)
    if unknown:
        raise ValueError(f"unknown exhibits: {sorted(unknown)}; "
                         f"known: {tuple(EXHIBITS)}")

    def run() -> int:
        t0 = time.time()
        data = {}  # per compute function: exhibits sharing one share its data
        for name in args.names or EXHIBITS:
            compute, render = EXHIBITS[name]
            if compute not in data:
                data[compute] = compute(args.duration)
            print(render(data[compute]))
            print()
        print(f"done in {time.time() - t0:.0f}s")
        return 0

    return run


def _breakdown(args, fps) -> Run:
    """Replay Fin1 under EDC once, with whichever instrumentation is asked.

    --telemetry, --metrics, --audit and --health compose: one device, one
    replay, and each flag only adds its report over the shared run; with
    none of them the run is --telemetry.  --health also gates: the space
    waterfall's conservation invariant is verified after the replay and
    a violation exits 1.
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

    # --metrics alone skips the span machinery it doesn't need.
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

    def replayed():
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
                f"{fp.name} (diff with: python -m repro.bench diff)")

    def write_health(fp, _) -> str:
        dump_health_json(health, fp)
        return f"\nwrote device-health report to {fp.name}"

    def run() -> int:
        print(f"running the instrumented replay "
              f"(duration {args.duration:.0f}s)...")
        try:
            _emit(replayed, render, [
                (fps.get("trace_dump"), write_trace),
                _series_dump(fps, sampler),
                (fps.get("audit_dump"), write_audit),
                (fps.get("health_dump"), write_health),
                _prom_dump(fps, lambda _: {
                    "metrics": (telemetry.metrics
                                if telemetry is not None else None),
                    "sampler": sampler,
                }),
            ])
        except SpaceAccountingError as exc:
            print(f"HEALTH FAIL: {exc}", file=sys.stderr)
            return 1
        return 0

    return run


def _chaos(args, fps) -> Run:
    """Replay one trace under a fault plan; the exit code is the verdict.

    --scrub-interval arms the online media scrubber, so latent retention
    / read-disturb corruption is CRC-detected and healed from parity
    through the normal device path.  A plan that cuts power belongs to
    the crash command.
    """
    from repro.bench import chaos
    from repro.telemetry import TimeSeriesSampler

    plan = _plan(args.plan, cuts=False)
    sampler = TimeSeriesSampler()

    def replayed():
        scrubbed = (f", scrub every {args.scrub_interval}s"
                    if args.scrub_interval is not None else "")
        print(f"chaos: replaying {args.trace} under {args.plan} "
              f"({args.backend}, duration {args.duration:.0f}s{scrubbed})...")
        return chaos.run_chaos(
            plan, trace_name=args.trace, backend=args.backend,
            duration=args.duration, sampler=sampler,
            scrub_interval=args.scrub_interval,
        )

    return lambda: _emit(replayed, chaos.render, [
        _record_dump(fps),
        _prom_dump(fps, lambda _: {"sampler": sampler}, lead="\n"),
    ]).exit_code


def _crash(args, fps) -> Run:
    """Cut power during a single-SSD replay; the exit code is the verdict.

    The replay is cut at each of the plan's power_loss instants, and
    every recovery is scanned and verified against an oracle.
    """
    from repro.bench import crash

    plan = _plan(args.plan, cuts=True)

    def replayed():
        print(f"crash chaos: replaying {args.trace} under {args.plan} "
              f"(ssd, duration {args.duration:.0f}s, "
              f"{len(plan.power_losses)} power cut(s))...")
        return crash.run_crash_chaos(plan, trace_name=args.trace,
                                     duration=args.duration)

    return lambda: _emit(replayed, crash.render, [_record_dump(fps)]).exit_code


def _cluster(args, fps) -> Run:
    """Run the sharded multi-tenant fleet; the exit code is the verdict.

    Consistent-hash routing and QoS admission; without --chaos the run
    forces one live range migration under load, with it the run is the
    fleet chaos harness.  Every run ends with the durability audit, and
    a broken run invariant (lost write, stuck migration, inconsistent
    SLO accounting, critical-path violation) grades at least DEGRADED.
    """
    from repro.bench import cluster
    from repro.telemetry import (
        BurnRateEngine,
        TimeSeriesSampler,
        dump_chrome_trace,
        render_dashboard,
    )

    plan = _plan(args.chaos, cuts=False) if args.chaos else None
    with_trace = args.trace or "trace_dump" in fps
    sampler = (
        TimeSeriesSampler()
        if args.metrics or args.alerts or "series_dump" in fps
        or "prom_dump" in fps else None
    )
    engine = BurnRateEngine() if args.alerts else None

    def replayed():
        mode = " + tracing" if with_trace else ""
        mode += " + burn-rate alerts" if args.alerts else ""
        work = "one live migration"
        if plan is not None:
            work = "fleet chaos"
            mode += (
                f" under chaos plan {args.chaos} "
                f"(rf={args.replication}, quorum={args.quorum}, "
                f"{len(plan.device_failures)} scheduled shard failure(s))"
            )
        print(f"cluster: {args.shards} shards x {args.tenants} tenants, "
              f"{args.requests} requests/tenant, {work}{mode}...")
        return cluster.run_cluster(
            n_shards=args.shards, n_tenants=args.tenants,
            max_requests=args.requests, sampler=sampler,
            trace=with_trace, alerts=engine, fault_plan=plan,
            replication_factor=args.replication, quorum=args.quorum,
            hedge_reads=args.hedge,
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

    return lambda: _emit(replayed, render, [
        _record_dump(fps),
        (fps.get("trace_dump"), write_trace),
        _series_dump(fps, sampler),
        _prom_dump(fps, exposition_sources),
    ]).exit_code


def _regress(args, fps) -> Run:
    """Replay the canonical traces and gate them against the baseline.

    Writes a schema-versioned BENCH_<n>.json record and exits 1 on any
    gated metric outside the baseline's tolerance (repro.bench.regress).
    """
    from repro.bench import regress

    baseline = None
    if not args.update_baseline or args.duration is None:
        try:
            baseline = regress.load_baseline(args.baseline)
        except FileNotFoundError:
            if not args.update_baseline:
                raise ValueError(f"baseline {args.baseline!r} not found "
                                 "(run with --update-baseline to create it)")
    duration = args.duration
    if duration is None:
        duration = baseline["duration_s"] if baseline is not None else 60.0
    gated = not (args.update_baseline or args.no_gate)
    if gated:
        regress.check_comparable(duration, args.scheme, baseline)

    def run() -> int:
        print(f"regress: scheme {args.scheme}, duration {duration:g}s, "
              f"traces {', '.join(args.traces)}")
        record = regress.run_bench(args.traces, duration=duration,
                                   scheme=args.scheme)
        if args.update_baseline:
            tolerances = (baseline["tolerances"] if baseline is not None
                          else None)
            regress.write_json(regress.make_baseline(record, tolerances),
                               args.baseline)
            print(f"wrote new baseline to {args.baseline}")
        violations = regress.compare(record, baseline) if gated else []
        record["baseline"] = {
            "path": args.baseline,
            "gated": gated,
            "passed": not violations,
            "violations": violations,
            # Kept empty so the BENCH_<n>.json layout stays frozen.
            "notes": [],
        }
        path = regress.write_record(record, args.out_dir)
        print(f"wrote {path} ({record['wall_clock_s']:.1f}s wall)")
        for trace, vals in record["traces"].items():
            print(f"  {trace}: mean {vals['mean_response_s'] * 1e3:.3f} ms, "
                  f"p95 {vals['p95_response_s'] * 1e3:.3f} ms, "
                  f"p99 {vals['p99_response_s'] * 1e3:.3f} ms, "
                  f"{vals['throughput_iops']:.1f} IOPS, "
                  f"ratio {vals['compression_ratio']:.3f}, "
                  f"WA {vals['write_amplification']:.3f}")
        if violations:
            print(f"\nREGRESSION: {len(violations)} violation(s) vs "
                  f"{args.baseline}:", file=sys.stderr)
            for v in violations:
                print(f"  {v}", file=sys.stderr)
            return 1
        if gated:
            print(f"baseline check passed ({args.baseline})")
        return 0

    return run


def _diff(args, fps) -> Run:
    """Compare two decision-audit dumps; exit 1 on a policy shift.

    The checks and thresholds are repro.bench.diff's; diffing a dump
    against itself always exits 0.
    """
    from repro.bench.diff import AuditDump, diff_dumps, render_diff

    a, b = AuditDump.load(args.dump_a), AuditDump.load(args.dump_b)
    result = diff_dumps(a, b, args.max_shift, args.max_latency_delta,
                        args.max_ratio_delta)

    def run() -> int:
        print(render_diff(a, b, result))
        return 0 if result.ok else 1

    return run


def _parser() -> _Parser:
    parser = _Parser(
        prog="python -m repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(required=True)

    def command(name: str, handler, *shared: str) -> _Parser:
        sub = commands.add_parser(
            name, help=handler.__doc__.splitlines()[0],
            description=handler.__doc__,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sub.set_defaults(handler=handler, refuse=sub.error)
        for flag in shared:
            sub.add_argument(flag, **SHARED[flag])
        return sub

    sub = command("exhibit", _exhibit, "--duration")
    sub.add_argument("names", nargs="*", metavar="NAME",
                     help=f"exhibits to print (default: all of "
                          f"{' '.join(EXHIBITS)})")

    sub = command("breakdown", _breakdown, "--duration", "--metrics",
                  "--series-dump", "--prom-dump")
    sub.add_argument("--telemetry", action="store_true",
                     help="per-layer latency breakdown, histogram "
                          "quantiles and an ASCII flamegraph")
    sub.add_argument("--trace-dump", metavar="PATH",
                     help="write the span trace as JSON lines to PATH")
    sub.add_argument("--audit", action="store_true",
                     help="decision auditor: per-band regret table vs "
                          "the shadow policies")
    sub.add_argument("--shadow", metavar="SPEC", default="lzf,gzip",
                     help="comma-separated shadow policies for --audit "
                          "(native, lzf, gzip, bzip2, edc; "
                          "default %(default)s)")
    sub.add_argument("--audit-dump", metavar="PATH",
                     help="write the decision-audit trail as JSON lines "
                          "to PATH (compare two with the diff command)")
    sub.add_argument("--health", action="store_true",
                     help="SMART page, space-efficiency waterfall (gated "
                          "on its conservation invariant), GC episode "
                          "audit and LBA temperature heatmap")
    sub.add_argument("--health-dump", metavar="PATH",
                     help="write the device-health report as JSON to PATH")

    sub = command("chaos", _chaos, "--duration", "--prom-dump", "--record")
    sub.add_argument("plan", metavar="PLAN.json", help="JSON fault plan")
    sub.add_argument("--trace", default="Fin1", choices=sorted(WORKLOADS),
                     help="trace to replay (default %(default)s)")
    sub.add_argument("--backend", default="rais5", choices=("ssd", "rais5"),
                     help="backend (default %(default)s)")
    sub.add_argument("--scrub-interval", type=float, metavar="S",
                     help="arm the online media scrubber with a sweep "
                          "every S virtual seconds")

    sub = command("crash", _crash, "--duration", "--record")
    sub.add_argument("plan", metavar="PLAN.json",
                     help="JSON fault plan with power_loss events")
    sub.add_argument("--trace", default="Fin1", choices=sorted(WORKLOADS),
                     help="trace to replay (default %(default)s)")

    sub = command("cluster", _cluster, "--metrics", "--series-dump",
                  "--prom-dump", "--record")
    sub.add_argument("--shards", type=int, default=4,
                     help="shards in the fleet (default %(default)s)")
    sub.add_argument("--tenants", type=int, default=8,
                     help="tenants in the fleet (default %(default)s)")
    sub.add_argument("--requests", type=int, default=1500,
                     help="requests per tenant stream (default %(default)s)")
    sub.add_argument("--chaos", metavar="PLAN.json",
                     help="arm the plan's device_failures (device names "
                          "shard0..N-1) against the fleet and grade the "
                          "post-run durability audit")
    sub.add_argument("--replication", type=int, default=1, metavar="N",
                     help="replicas per LBA range (default 1)")
    sub.add_argument("--quorum", default="majority",
                     choices=("one", "majority", "all"),
                     help="write-ack quorum (default %(default)s)")
    sub.add_argument("--hedge", action="store_true",
                     help="with --replication > 1, hedge reads to a second "
                          "replica at the tenant's observed p95 latency")
    sub.add_argument("--trace", action="store_true",
                     help="distributed tracing: critical-path attribution, "
                          "and any conservation violation fails the run")
    sub.add_argument("--trace-dump", metavar="PATH",
                     help="write the Chrome trace-event / Perfetto JSON "
                          "to PATH (implies --trace)")
    sub.add_argument("--alerts", action="store_true",
                     help="print the multi-window SLO burn-rate alert "
                          "transitions")

    sub = command("regress", _regress)
    sub.add_argument("--traces", nargs="+", default=list(CANONICAL_TRACES),
                     choices=sorted(WORKLOADS), metavar="TRACE",
                     help=f"traces to replay (default: "
                          f"{' '.join(CANONICAL_TRACES)})")
    sub.add_argument("--duration", type=float,
                     help="virtual seconds per trace (default: the "
                          "baseline's, so results stay comparable)")
    sub.add_argument("--scheme", default="EDC",
                     help="compression scheme to gate (default %(default)s)")
    sub.add_argument("--baseline", default="benchmarks/baseline.json",
                     help="baseline to gate against (default %(default)s)")
    sub.add_argument("--out-dir", default=".",
                     help="directory for BENCH_<n>.json (default %(default)s)")
    sub.add_argument("--update-baseline", action="store_true",
                     help="write the run as the new baseline instead of "
                          "gating against it")
    sub.add_argument("--no-gate", action="store_true",
                     help="record BENCH_<n>.json but skip the comparison")

    sub = command("diff", _diff)
    sub.add_argument("dump_a", help="reference audit dump (JSONL)")
    sub.add_argument("dump_b", help="candidate audit dump (JSONL)")
    for flag, default, what in (
        ("--max-shift", DEFAULT_MAX_SHIFT, "total-variation distance "
         "between codec-selection distributions, overall and per band"),
        ("--max-latency-delta", DEFAULT_MAX_LATENCY_DELTA,
         "relative per-band mean-response change"),
        ("--max-ratio-delta", DEFAULT_MAX_RATIO_DELTA,
         "relative per-band stored-ratio change"),
    ):
        sub.add_argument(flag, type=float, default=default,
                         help=f"max {what} (default %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    with contextlib.ExitStack() as stack:
        # The handler reads every input and returns the run: everything
        # that can refuse the command line happens before it starts, so
        # nothing raised later is a usage error.
        try:
            run = args.handler(args, _open_dumps(stack, args))
        except (OSError, ValueError) as exc:
            args.refuse(str(exc))
        return run()


if __name__ == "__main__":
    sys.exit(main())
