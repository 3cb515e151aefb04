"""Benchmark regression harness: replay, record, gate.

``python -m repro.bench regress`` replays the paper's canonical
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

    python -m repro.bench regress                     # all four traces
    python -m repro.bench regress --traces Fin1       # short CI slice
    python -m repro.bench regress --update-baseline   # re-pin the baseline
    python -m repro.bench regress --out-dir bench-out # BENCH_<n>.json home

A baseline that cannot be read, an unknown trace, or (when the run
gates) a duration or scheme other than the baseline's is refused before
any replay, with exit status 64.
"""

from __future__ import annotations

import json
import os
import platform
import re
import time
from typing import Dict, List, Optional, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "CANONICAL_TRACES",
    "DEFAULT_TOLERANCES",
    "GATED_METRICS",
    "run_bench",
    "compare",
    "make_baseline",
    "load_baseline",
    "next_bench_path",
    "check_comparable",
    "write_json",
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

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


class RegressionError(ValueError):
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
def make_baseline(
    record: Dict[str, object],
    tolerances: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """A baseline document pinned to ``record``'s gated metrics."""
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
        try:
            doc = json.load(fp)
        except json.JSONDecodeError as exc:
            raise RegressionError(f"baseline {path!r}: {exc}") from None
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


def check_comparable(
    duration: float, scheme: str, baseline: Dict[str, object]
) -> None:
    """Raise :class:`RegressionError` unless a run at ``duration`` under
    ``scheme`` can be gated against ``baseline``."""
    if duration != baseline["duration_s"]:
        raise RegressionError(
            f"cannot gate: duration {duration}s != "
            f"baseline duration {baseline['duration_s']}s"
        )
    if scheme != baseline["scheme"]:
        raise RegressionError(
            f"cannot gate: scheme {scheme!r} != "
            f"baseline scheme {baseline['scheme']!r}"
        )


def compare(
    record: Dict[str, object],
    baseline: Dict[str, object],
) -> List[str]:
    """Violation messages (empty = pass) for ``record`` vs ``baseline``.

    Every gated metric of every trace present in *both* documents is
    checked with the baseline's relative tolerance; a current trace
    missing from the baseline is itself a violation (silently ungated
    workloads are how regressions slip through).
    """
    check_comparable(record["duration_s"], record["scheme"], baseline)
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


def write_json(doc: Dict[str, object], path: str) -> str:
    """Write ``doc`` as sorted, indented JSON (a record or a baseline)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path


def write_record(record: Dict[str, object], out_dir: str) -> str:
    return write_json(record, next_bench_path(out_dir))
