#!/usr/bin/env python3
"""Replay an OLTP workload under all five schemes and compare them.

Reproduces the core of the paper's evaluation loop on one trace: the
synthetic Fin1 workload (write-heavy OLTP with burst/idle alternation)
replayed against a simulated X25-E-like SSD under Native, Lzf, Gzip,
Bzip2 and EDC, reporting the three headline metrics — compression ratio,
mean response time, and the ratio/time composite.

Run:  python examples/oltp_replay.py [--duration SECONDS]
"""

import argparse

from repro.bench.experiments import ReplayConfig, replay_all_schemes
from repro.tables import render_table
from repro.traces.workloads import make_workload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--duration", type=float, default=80.0,
        help="virtual seconds of trace to generate and replay (default 80)",
    )
    parser.add_argument("--trace", default="Fin1",
                        choices=["Fin1", "Fin2", "Usr_0", "Prxy_0"])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    trace = make_workload(args.trace, duration=args.duration,
                          max_requests=None, seed=args.seed)
    stats = trace.stats()
    print(f"trace {trace.name}: {stats.n_requests} requests, "
          f"{stats.write_ratio:.0%} writes, {stats.raw_iops:.0f} IOPS avg, "
          f"{stats.avg_request_bytes / 1024:.1f} KB avg request")
    print("replaying under all five schemes (this takes a minute)...\n")

    results = replay_all_schemes(trace, ReplayConfig())
    native = results["Native"]
    rows = []
    for scheme, r in results.items():
        rows.append(
            [
                scheme,
                f"{r.compression_ratio:.2f}",
                f"{r.space_saving:.1%}",
                f"{r.mean_response * 1e3:.3f}",
                f"{r.mean_response / native.mean_response:.2f}x",
                f"{r.composite / native.composite:.2f}x",
                f"{r.write_amplification:.2f}",
            ]
        )
    print(
        render_table(
            ["scheme", "ratio", "saving", "resp ms", "resp vs Native",
             "composite vs Native", "WA"],
            rows,
            title=f"{trace.name} on a single simulated SSD",
        )
    )
    edc = results["EDC"]
    print(
        f"\nEDC internals: codec shares "
        f"{ {k: round(v, 2) for k, v in edc.codec_shares.items()} }, "
        f"{edc.skipped_incompressible} writes gated as incompressible, "
        f"{edc.skipped_intensity} skipped at peak intensity, "
        f"{edc.merged_runs} merged runs"
    )


if __name__ == "__main__":
    main()
