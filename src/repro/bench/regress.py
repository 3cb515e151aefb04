"""Benchmark regression harness: replay, record, gate.

``python -m repro.bench.regress`` replays the paper's canonical
workloads (Fin1/Fin2/Usr_0/Prxy_0) under EDC, writes a schema-versioned
``BENCH_<n>.json`` record (mean/p95/p99 response time, throughput,
compression ratio, write amplification, wall-clock) and compares the
deterministic metrics against a committed ``benchmarks/baseline.json``
with per-metric relative tolerances, **exiting non-zero on any
violation** — the gate every performance-touching PR runs under.

The simulation is fully deterministic (seeded RNG, virtual clock), so
the gated metrics reproduce bit-for-bit on a healthy tree; the
tolerances exist to absorb *intentional* micro-drift from future model
changes, not machine noise.  Wall-clock time is recorded for the
trajectory but never gated.

Usage::

    python -m repro.bench.regress                     # all four traces
    python -m repro.bench.regress --traces Fin1       # short CI slice
    python -m repro.bench.regress --update-baseline   # re-pin the baseline
    python -m repro.bench.regress --out-dir bench-out # BENCH_<n>.json home
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
import time
from typing import Dict, List, Optional, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "CANONICAL_TRACES",
    "DEFAULT_TOLERANCES",
    "GATED_METRICS",
    "CORE_RECORD_KEYS",
    "OPTIONAL_SECTION_TOLERANCE",
    "run_bench",
    "compare",
    "optional_sections",
    "make_baseline",
    "load_baseline",
    "next_bench_path",
    "main",
]

#: Version of the BENCH_<n>.json / baseline.json record layout.
SCHEMA_VERSION = 1

#: The paper's four evaluation traces (Table II).
CANONICAL_TRACES = ("Fin1", "Fin2", "Usr_0", "Prxy_0")

#: Gated metrics and their default relative tolerances.  The replay is
#: deterministic, so these bound *allowed drift per PR*, not noise.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "mean_response_s": 0.05,
    "p95_response_s": 0.08,
    "p99_response_s": 0.10,
    "throughput_iops": 0.02,
    "compression_ratio": 0.02,
    "write_amplification": 0.05,
}

GATED_METRICS = tuple(DEFAULT_TOLERANCES)

#: Core BENCH record keys; any other top-level key is an *optional
#: section* (e.g. ``replicated_cluster``, added by BENCH_3's chaos
#: exhibit).  Optional sections gate only when the baseline pins them —
#: a new record gated against an older baseline skips them with a note
#: instead of failing, so adding an exhibit never breaks older gates.
CORE_RECORD_KEYS = frozenset({
    "schema_version", "bench", "scheme", "duration_s", "python",
    "wall_clock_s", "traces", "baseline",
})

#: Relative tolerance for numeric fields of pinned optional sections.
OPTIONAL_SECTION_TOLERANCE = 0.05

#: Fields of optional sections never gated (wall-clock noise).
_UNGATED_FIELDS = frozenset({"wall_clock_s"})

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


class RegressionError(RuntimeError):
    """Raised on baseline/record mismatches that make gating impossible."""


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def run_bench(
    traces: Sequence[str] = CANONICAL_TRACES,
    duration: float = 60.0,
    scheme: str = "EDC",
) -> Dict[str, object]:
    """Replay each trace and return the BENCH record payload (a dict)."""
    from repro.bench.experiments import replay
    from repro.traces.workloads import WORKLOADS, make_workload

    unknown = [t for t in traces if t not in WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown traces {unknown}; known: {sorted(WORKLOADS)}"
        )
    results: Dict[str, Dict[str, float]] = {}
    t_total = time.time()
    for name in traces:
        t0 = time.time()
        trace = make_workload(name, duration=duration)
        r = replay(trace, scheme)
        wall = time.time() - t0
        results[name] = {
            "n_requests": float(r.n_requests),
            "mean_response_s": r.mean_response,
            "p95_response_s": r.p95_response,
            "p99_response_s": r.p99_response,
            "throughput_iops": r.n_requests / duration,
            "compression_ratio": r.compression_ratio,
            "write_amplification": r.write_amplification,
            "gc_stall_s": r.gc_stall_time,
            "wall_clock_s": wall,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "repro.bench.regress",
        "scheme": scheme,
        "duration_s": duration,
        "python": platform.python_version(),
        "wall_clock_s": time.time() - t_total,
        "traces": results,
    }


# ----------------------------------------------------------------------
# baseline handling
# ----------------------------------------------------------------------
def optional_sections(record: Dict[str, object]) -> List[str]:
    """Top-level keys of ``record`` outside the core BENCH schema."""
    return sorted(
        k for k, v in record.items()
        if k not in CORE_RECORD_KEYS and isinstance(v, dict)
    )


def make_baseline(
    record: Dict[str, object],
    tolerances: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """A baseline document pinned to ``record``'s gated metrics.

    The record's optional sections are not pinned: :func:`compare`
    leaves them ungated (skip-with-note) until a baseline carries them.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "scheme": record["scheme"],
        "duration_s": record["duration_s"],
        "tolerances": dict(
            tolerances if tolerances is not None else DEFAULT_TOLERANCES
        ),
        "traces": {
            name: {m: vals[m] for m in GATED_METRICS}
            for name, vals in record["traces"].items()  # type: ignore[union-attr]
        },
    }


def load_baseline(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fp:
        doc = json.load(fp)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise RegressionError(
            f"baseline {path!r} has schema_version {version!r}; "
            f"this harness speaks {SCHEMA_VERSION}"
        )
    for key in ("duration_s", "scheme", "tolerances", "traces"):
        if key not in doc:
            raise RegressionError(f"baseline {path!r} is missing {key!r}")
    return doc


def compare(
    record: Dict[str, object],
    baseline: Dict[str, object],
    notes: Optional[List[str]] = None,
) -> List[str]:
    """Violation messages (empty = pass) for ``record`` vs ``baseline``.

    Every gated metric of every trace present in *both* documents is
    checked with the baseline's relative tolerance; a current trace
    missing from the baseline is itself a violation (silently ungated
    workloads are how regressions slip through).

    Optional record sections (top-level keys outside the core schema,
    e.g. ``replicated_cluster``) gate only when the baseline pins them;
    a section absent from the baseline is *skipped* and recorded in
    ``notes`` (when a list is passed) — newer records must stay gateable
    against older baselines.
    """
    if record["duration_s"] != baseline["duration_s"]:
        raise RegressionError(
            f"cannot gate: record duration {record['duration_s']}s != "
            f"baseline duration {baseline['duration_s']}s"
        )
    if record["scheme"] != baseline["scheme"]:
        raise RegressionError(
            f"cannot gate: record scheme {record['scheme']!r} != "
            f"baseline scheme {baseline['scheme']!r}"
        )
    tolerances: Dict[str, float] = baseline["tolerances"]  # type: ignore[assignment]
    base_traces: Dict[str, Dict[str, float]] = baseline["traces"]  # type: ignore[assignment]
    violations: List[str] = []
    for trace, current in record["traces"].items():  # type: ignore[union-attr]
        base = base_traces.get(trace)
        if base is None:
            violations.append(f"{trace}: not present in baseline")
            continue
        for metric, tol in tolerances.items():
            if metric not in current or metric not in base:
                violations.append(f"{trace}.{metric}: missing from record "
                                  "or baseline")
                continue
            cur_v = float(current[metric])
            base_v = float(base[metric])
            if base_v == 0.0:
                deviation = abs(cur_v)
            else:
                deviation = abs(cur_v - base_v) / abs(base_v)
            if deviation > tol:
                violations.append(
                    f"{trace}.{metric}: {cur_v:.6g} vs baseline "
                    f"{base_v:.6g} (deviation {deviation:.2%} > "
                    f"tolerance {tol:.2%})"
                )
    for section in optional_sections(record):
        base_sec = baseline.get(section)
        if not isinstance(base_sec, dict):
            if notes is not None:
                notes.append(
                    f"{section}: optional section not pinned in "
                    "baseline; skipped"
                )
            continue
        current_sec = record[section]
        for key, base_v in base_sec.items():
            if key in _UNGATED_FIELDS or not isinstance(
                base_v, (int, float)
            ) or isinstance(base_v, bool):
                continue
            if key not in current_sec:  # type: ignore[operator]
                violations.append(f"{section}.{key}: missing from record")
                continue
            cur_v = float(current_sec[key])  # type: ignore[index]
            base_f = float(base_v)
            if base_f == 0.0:
                deviation = abs(cur_v)
            else:
                deviation = abs(cur_v - base_f) / abs(base_f)
            if deviation > OPTIONAL_SECTION_TOLERANCE:
                violations.append(
                    f"{section}.{key}: {cur_v:.6g} vs baseline "
                    f"{base_f:.6g} (deviation {deviation:.2%} > "
                    f"tolerance {OPTIONAL_SECTION_TOLERANCE:.2%})"
                )
    return violations


# ----------------------------------------------------------------------
# BENCH_<n>.json trajectory
# ----------------------------------------------------------------------
def next_bench_path(out_dir: str) -> str:
    """Path of the next ``BENCH_<n>.json`` in ``out_dir`` (n starts at 1)."""
    highest = 0
    if os.path.isdir(out_dir):
        for entry in os.listdir(out_dir):
            m = _BENCH_NAME.match(entry)
            if m:
                highest = max(highest, int(m.group(1)))
    return os.path.join(out_dir, f"BENCH_{highest + 1}.json")


def write_record(record: Dict[str, object], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = next_bench_path(out_dir)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regress", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--traces", nargs="+", default=list(CANONICAL_TRACES),
                        metavar="TRACE",
                        help=f"traces to replay (default: {CANONICAL_TRACES})")
    parser.add_argument("--duration", type=float, default=None,
                        help="virtual seconds per trace (default: the "
                             "baseline's pinned duration, so results "
                             "stay comparable)")
    parser.add_argument("--scheme", default="EDC",
                        help="compression scheme to gate (default EDC)")
    parser.add_argument("--baseline", default="benchmarks/baseline.json",
                        help="baseline to gate against "
                             "(default benchmarks/baseline.json)")
    parser.add_argument("--out-dir", default=".",
                        help="directory for BENCH_<n>.json (default .)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the run as the new baseline instead "
                             "of gating against it")
    parser.add_argument("--no-gate", action="store_true",
                        help="record BENCH_<n>.json but skip the "
                             "baseline comparison")
    args = parser.parse_args(argv)

    baseline = None
    if not args.update_baseline or args.duration is None:
        try:
            baseline = load_baseline(args.baseline)
        except FileNotFoundError:
            if not args.update_baseline:
                print(f"error: baseline {args.baseline!r} not found "
                      "(run with --update-baseline to create it)",
                      file=sys.stderr)
                return 2
        except RegressionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    duration = args.duration
    if duration is None:
        duration = baseline["duration_s"] if baseline is not None else 60.0

    print(f"regress: scheme {args.scheme}, duration {duration:g}s, "
          f"traces {', '.join(args.traces)}")
    record = run_bench(args.traces, duration=duration, scheme=args.scheme)

    if args.update_baseline:
        tolerances = (baseline["tolerances"] if baseline is not None
                      else DEFAULT_TOLERANCES)
        doc = make_baseline(record, tolerances=tolerances)
        os.makedirs(os.path.dirname(args.baseline) or ".", exist_ok=True)
        with open(args.baseline, "w", encoding="utf-8") as fp:
            json.dump(doc, fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"wrote new baseline to {args.baseline}")

    gated = not (args.update_baseline or args.no_gate)
    violations: List[str] = []
    notes: List[str] = []
    if gated:
        try:
            violations = compare(record, baseline, notes=notes)
        except RegressionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    record["baseline"] = {
        "path": args.baseline,
        "gated": gated,
        "passed": not violations,
        "violations": violations,
        "notes": notes,
    }
    path = write_record(record, args.out_dir)
    print(f"wrote {path} ({record['wall_clock_s']:.1f}s wall)")
    for trace, vals in record["traces"].items():  # type: ignore[union-attr]
        print(f"  {trace}: mean {vals['mean_response_s'] * 1e3:.3f} ms, "
              f"p95 {vals['p95_response_s'] * 1e3:.3f} ms, "
              f"p99 {vals['p99_response_s'] * 1e3:.3f} ms, "
              f"{vals['throughput_iops']:.1f} IOPS, "
              f"ratio {vals['compression_ratio']:.3f}, "
              f"WA {vals['write_amplification']:.3f}")
    for note in notes:
        print(f"  note: {note}")
    if violations:
        print(f"\nREGRESSION: {len(violations)} violation(s) vs "
              f"{args.baseline}:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    if gated:
        print(f"baseline check passed ({args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
