#!/usr/bin/env python3
"""Host-time benchmark of the EDC simulator: one command, every metric.

    python benchmarks/perf/run.py [--seed 42] [--repeats 2] [--traced] [--smoke]
    python benchmarks/perf/run.py --workload native-gc --seed 7 --seconds 12 --trace 0
    python benchmarks/perf/run.py --compare A.json B.json

Each repeat of a workload runs in a fresh worker process; the repeats'
stamped segments are filtered against each other (``timing.py``).  The
metric names, units and bounds live in ``BENCHMARK.json`` at the root of
the repository; ``README.md`` here is the catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import timing  # noqa: E402
from spans import CALLS, LAYERS, SELF_S, TOTAL_S  # noqa: E402
from timing import K, SMOKE_SCALE  # noqa: E402

MIN_REPEATS = 6
MAX_REPEATS = 8
WORKER_TIMEOUT_S = 170
#: simulated results: a speed-only change leaves them bit-identical
SIMULATED = ("sim_mean_response_ms", "sim_p99_response_ms", "flash_bytes_per_host_byte")
NOISY_WARN_SHARE = 0.2


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (not: produced a bad one)."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


# ----------------------------------------------------------------------
# workers
# ----------------------------------------------------------------------
def run_worker(
    workload: str, seed: int, scale: float, tmp: str,
    stamps: int = K, spans_out: Optional[str] = None,
) -> dict:
    """One run in a fresh process with an empty home, cache and temp dir."""
    home = tempfile.mkdtemp(prefix="home-", dir=tmp)
    env = {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONHASHSEED": "0",
        "HOME": home, "XDG_CACHE_HOME": home, "TMPDIR": home,
    }
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--stamps", str(stamps),
    ]
    if spans_out is not None:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(home, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def raw_wall(record: dict) -> float:
    return sum(record["segments"])


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def failed_operations(record: dict) -> int:
    never_completed = record["attempted"] - record["completed"]
    return never_completed + sum(record["failures"].values())


def end_to_end(records: List[dict]) -> Dict[str, float]:
    first = records[0]
    timed = timing.filtered_seconds([r["segments"] for r in records])
    setup = timing.filtered_seconds([[s for _, s in r["setup"]] for r in records])
    metrics = {
        "replay_req_per_s": first["completed"] / timed,
        "setup_s": setup,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    for name in SIMULATED:
        metrics[name] = float(first["sim"][name])
    return metrics


def _entry(trace: dict, layer: str, entry: str) -> List[float]:
    return trace["entries"].get(f"{layer}:{entry}", [0, 0, 0.0, 0.0])


def _ratio(num: float, den: float) -> float:
    """``num / den``, and 0 when there was nothing to divide by."""
    return num / den if den else 0.0


def per_layer(records: List[dict], traced: dict) -> Dict[str, float]:
    first = records[0]
    counts = first["counts"]
    trace = traced["trace"]
    segments = [r["segments"] for r in records]
    compress = [
        v for key, v in trace["entries"].items()
        if key.startswith("compression:") and key.endswith("Codec.compress")
        and key != "compression:NullCodec.compress"
    ]
    estimator = [
        v for key, v in trace["entries"].items()
        if key.startswith("compression:SampledEstimator.") and not key.endswith("__init__")
    ]
    lzf = _entry(trace, "compression", "LZFCodec.compress")
    gzip = _entry(trace, "compression", "ZlibCodec.compress")
    pool = _entry(trace, "sdgen", "ContentStore.__init__")
    tcounts = trace["counts"]
    layers = trace["timed_layers"]
    traced_wall = sum(v["self_s"] for v in layers.values())
    untraced_wall = statistics.median(raw_wall(r) for r in records)
    hits, misses = counts["sdgen.memo_hits"], counts["sdgen.memo_misses"]
    kept, dropped = counts["compression.kept"], counts["compression.failed_75pct"]
    host_bytes = counts["flash.host_bytes"]

    m = {
        "host.import_s": statistics.median(r["import_s"] for r in records),
        "host.replay_wall_s_raw_median": untraced_wall,
        "host.segment_spread": timing.segment_spread(segments),
        "host.noisy_segments_share": timing.noisy_share(segments),
        "host.tracing_overhead": raw_wall(traced) / untraced_wall - 1.0,
        "traces.generate_s": timing.filtered_seconds(
            [[s for name, s in r["setup"] if name == "generate"] for r in records]),
        "traces.requests": first["attempted"],
        "traces.write_share": first["writes_in"] / first["attempted"],
        "sdgen.pool_build_s": pool[TOTAL_S],
        "sdgen.stores_built": pool[CALLS],
        "sdgen.memo_hits": hits,
        "sdgen.memo_misses": misses,
        "sdgen.memo_hit_rate": _ratio(hits, hits + misses),
        "sdgen.bytes_assembled": tcounts.get("sdgen.bytes_assembled", 0),
        "compression.compress_calls": tcounts.get("compress.calls", 0),
        "compression.bytes_in": tcounts.get("compress.bytes_in", 0),
        "compression.bytes_out": tcounts.get("compress.bytes_out", 0),
        "compression.mb_per_s": _ratio(
            tcounts.get("compress.bytes_in", 0) / 1e6, sum(v[SELF_S] for v in compress)),
        "compression.lzf.self_s": lzf[SELF_S],
        "compression.lzf.calls": lzf[CALLS],
        "compression.gzip.self_s": gzip[SELF_S],
        "compression.gzip.calls": gzip[CALLS],
        "compression.estimator_calls": sum(v[CALLS] for v in estimator),
        "compression.estimator_s": sum(v[SELF_S] for v in estimator),
        "compression.kept_share": _ratio(kept, kept + dropped),
        "core.plan_write_calls": _entry(trace, "core", "CompressionEngine.plan_write")[CALLS],
        "core.us_per_request": layers["core"]["self_s"] / first["attempted"] * 1e6,
        "flash.write_amplification": _ratio(
            host_bytes + counts["flash.gc_relocated_bytes"], host_bytes),
        "introspect.waterfall_calls": _entry(trace, "introspect", "space_waterfall")[CALLS],
        "introspect.smart_calls": _entry(trace, "introspect", "smart_snapshot")[CALLS],
        "sim.events_scheduled": _entry(trace, "sim", "Simulator.schedule_at")[CALLS],
        "sim.us_per_event": layers["sim"]["self_s"] / counts["sim.events_dispatched"] * 1e6,
    }
    for name in (
        "core.submits", "core.writes", "core.reads", "core.merged_runs",
        "core.skipped_intensity", "core.skipped_incompressible",
        "flash.ftl_writes", "flash.erases", "flash.gc_relocated_bytes",
        "flash.gc_stall_sim_s", "flash.mapping_entries", "flash.alloc_calls",
        "sim.events_dispatched",
        "telemetry.sampler_ticks", "telemetry.spans_recorded",
        "telemetry.audit_decisions", "telemetry.gc_episodes",
        "cluster.requests_routed", "cluster.parts", "cluster.replica_writes",
        "cluster.queued", "cluster.retries", "cluster.failovers",
    ):
        m[name] = counts.get(name, 0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layers[layer]["self_s"]
        m[f"{layer}.calls"] = layers[layer]["calls"]
        m[f"{layer}.share"] = layers[layer]["self_s"] / traced_wall
    return m


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def output_checks(
    records: List[dict], traced: Optional[dict], ab: Optional[List[dict]],
) -> Dict[str, List]:
    """Every output check of one workload: name -> [ok, detail]."""
    first = records[0]
    checks: Dict[str, List] = {}
    failed = max(failed_operations(r) for r in records)
    checks["all_completed"] = [
        failed == 0,
        f"{first['completed']} of {first['attempted']} completed, "
        f"{failed} failed ({first['failures']})",
    ]
    for record in records:
        for name, verdict in record["checks"].items():
            if name not in checks or not verdict[0]:
                checks[name] = verdict
    same = all(r["sim"] == first["sim"] and r["counts"] == first["counts"] for r in records)
    checks["repeats_identical"] = [
        same, f"simulated metrics and counts over {len(records)} repeats"]
    if traced is not None:
        checks["traced_identical"] = [
            traced["sim"] == first["sim"] and traced["counts"] == first["counts"],
            "simulated metrics and counts, traced against untraced",
        ]
    if ab is not None:
        plain, stamped = ab
        delta = (stamped["counts"]["sim.events_dispatched"]
                 - plain["counts"]["sim.events_dispatched"])
        checks["stamps_only_dispatch"] = [
            delta == K and stamped["sim"] == plain["sim"],
            f"smoke-size A/B: sim.dispatched +{delta} with {K} stamps, "
            "simulated metrics " + ("equal" if stamped["sim"] == plain["sim"] else "DIFFER"),
        ]
    return checks


# ----------------------------------------------------------------------
# one workload, start to finish
# ----------------------------------------------------------------------
class Session:
    """Measures workloads round-robin and turns the records into results."""

    def __init__(self, args, contract: dict) -> None:
        self.args = args
        self.scale = SMOKE_SCALE if args.smoke else 1.0
        self.min_repeats = args.repeats or (1 if args.smoke else MIN_REPEATS)
        self.seconds = 0.0 if args.smoke else args.seconds
        self.units = {
            m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _needs_repeat(self, records: List[dict]) -> bool:
        if len(records) < self.min_repeats:
            return True
        measured = sum(raw_wall(r) for r in records)
        return measured < self.seconds and len(records) < MAX_REPEATS

    def measure(self, names: List[str]) -> Dict[str, List[dict]]:
        """Repeats, round-robin so one workload's repeats lie apart in time."""
        records: Dict[str, List[dict]] = {name: [] for name in names}
        while True:
            due = [n for n in names if self._needs_repeat(records[n])]
            if not due:
                return records
            for name in due:
                records[name].append(
                    run_worker(name, self.args.seed, self.scale, self.tmp))

    def diagnose(self, name: str, records: List[dict]):
        """The traced run and the stamp A/B (``--trace 1`` only)."""
        spans_out = os.path.join(OUT_DIR, f"{name}.spans.jsonl")
        traced = run_worker(name, self.args.seed, self.scale, self.tmp, spans_out=spans_out)
        plain = run_worker(name, self.args.seed, SMOKE_SCALE, self.tmp, stamps=0)
        stamped = (
            records[0] if self.scale == SMOKE_SCALE
            else run_worker(name, self.args.seed, SMOKE_SCALE, self.tmp)
        )
        return traced, [plain, stamped]

    def result(self, name: str, records: List[dict]) -> dict:
        traced = ab = None
        if self.args.trace:
            traced, ab = self.diagnose(name, records)
        checks = output_checks(records, traced, ab)
        values = end_to_end(records)
        if traced is not None:
            values.update(per_layer(records, traced))
        segments = [r["segments"] for r in records]
        return {
            "correct": all(ok for ok, _ in checks.values()),
            "attempted": records[0]["attempted"],
            "failed": max(failed_operations(r) for r in records),
            "metrics": {n: {"value": v, "unit": self.units[n]} for n, v in values.items()},
            "checks": checks,
            "repeats": len(records),
            "raw_req_per_s": [r["completed"] / raw_wall(r) for r in records],
            "raw_setup_s": [sum(s for _, s in r["setup"]) for r in records],
            "noisy_segments_share": timing.noisy_share(segments),
        }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_result(name: str, result: dict, contract: dict) -> None:
    print(f"\n== {name}: {result['attempted']} attempted, {result['failed']} failed, "
          f"{result['repeats']} repeats ==")
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        note = ""
        if metric in bounds:
            b = bounds[metric]
            note = f"  ({b['better']} is better, bound {b['bound']})"
        print(f"  {metric:<34} {shown:>14} {entry['unit']}{note}")
    for check, (ok, detail) in result["checks"].items():
        print(f"  check {check:<24} {'ok' if ok else 'FAILED'}: {detail}")
    if result["noisy_segments_share"] > NOISY_WARN_SHARE:
        print(f"  warning: {result['noisy_segments_share']:.0%} of segments differ by "
              f"more than {timing.NOISY_RATIO}x between repeats; the host is noisy")


def environment(args, session: Session, load_start: List[float]) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "seed": args.seed,
        "scale": session.scale,
        "min_repeats": session.min_repeats,
        "seconds": session.seconds,
        "stamps": K,
    }


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _spread(values: List[float]) -> float:
    return (max(values) - min(values)) / statistics.median(values)


def compare(path_a: str, path_b: str, contract: dict) -> int:
    """Apply the bounds per (workload, metric); 1 if anything got worse.

    A simulated result has no noise: on equal inputs it is held exact,
    whatever bound (if any) the contract gives it across seeds.
    """
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    same_inputs = all(a["env"][k] == b["env"][k] for k in ("seed", "scale"))
    specs = {m["name"]: m for m in contract["per_layer"] if m["name"] in SIMULATED}
    specs.update({m["name"]: m for m in contract["end_to_end"]})
    raw = {"replay_req_per_s": "raw_req_per_s", "setup_s": "raw_setup_s"}
    worse = 0
    print(f"{'workload':<14} {'metric':<28} {'A':>12} {'B':>12} {'change':>8}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        for name, spec in specs.items():
            va, vb = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
            change = (vb - va) / va
            worsening = change if spec["better"] == "lower" else -change
            exact = name in SIMULATED and same_inputs
            bound = 0.0 if exact else spec.get("bound")
            if bound is None:
                verdict = "not comparable (other inputs, no bound)"
            elif worsening > bound:
                verdict = "worse"
                worse += 1
            elif name in raw and max(_spread(ra[raw[name]]), _spread(rb[raw[name]])) > bound:
                verdict = "unresolved"  # the repeats spread wider than the bound
            elif exact and va != vb:
                verdict = "better (simulated result changed)"
            else:
                verdict = "same"
            print(f"{workload:<14} {name:<28} {va:>12.6g} {vb:>12.6g} {change:>+8.2%}  {verdict}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="keep repeating until this much host time was measured")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"fewest repeats per workload (default {MIN_REPEATS}; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced run and report the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size, one repeat: checks only, timings mean nothing")
    parser.add_argument("--out", help="write the full record (for --compare) here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, contract)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2

    load_start = list(os.getloadavg())
    session = Session(args, contract)
    try:
        selected = [args.workload] if args.workload else names
        records = session.measure(selected)
        results = {name: session.result(name, records[name]) for name in selected}
        env = environment(args, session, load_start)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        session.close()

    print("environment: " + json.dumps(env))
    for name, result in results.items():
        print_result(name, result, contract)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump({"env": env, "workloads": results}, fp, indent=1)
    ok = all(r["correct"] for r in results.values())
    print("\n" + ("all checks passed" if ok else "CHECKS FAILED"))
    if args.workload:
        # the driver's contract: one JSON object as the last line
        wanted = contract["per_layer" if args.trace else "end_to_end"]
        result = results[args.workload]
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: result["metrics"][m["name"]] for m in wanted},
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
