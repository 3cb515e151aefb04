#!/usr/bin/env python3
"""Watch the elastic policy breathe: time-series metrics demo.

Replays a short Fin1 burst against the EDC device with a
:class:`~repro.telemetry.TimeSeriesSampler` attached, then prints:

1. the ASCII multi-panel dashboard — one sparkline per sampled series
   (calculated/raw IOPS, active intensity band, per-codec write share,
   compression ratio, size-class occupancy, queue depth, GC, write
   amplification, flash busy fraction), with band-switch carets aligned
   under the ``policy.band`` row;
2. a Prometheus-style exposition snapshot of the final sample, and the
   round-trip through :func:`~repro.telemetry.parse_exposition`;
3. a JSON-lines dump of the raw ring series for offline plotting.

Run:  python examples/metrics_dashboard.py
"""

import io

from repro.bench.experiments import ReplayConfig, replay
from repro.telemetry import (
    TimeSeriesSampler,
    dump_timeseries_jsonl,
    parse_exposition,
    render_dashboard,
    render_exposition,
)
from repro.traces.workloads import make_workload


def main() -> None:
    # --- instrumented replay ---------------------------------------------
    # The sampler is opt-in like Telemetry: replay() binds it to the
    # replay's simulator and device, and a simulation-clock daemon event
    # scrapes the standard metric vocabulary every `interval` virtual
    # seconds without keeping the run alive.
    sampler = TimeSeriesSampler(interval=0.25)
    trace = make_workload("Fin1", duration=10.0, seed=42)
    result = replay(
        trace, "EDC", ReplayConfig(capacity_mb=64), sampler=sampler
    )
    print(f"replayed {result.n_requests} Fin1 requests under EDC "
          f"(mean response {result.mean_response * 1e3:.3f} ms)\n")

    # --- 1. the dashboard ------------------------------------------------
    # Band switches are captured exactly (via the policy's select
    # event), not sampled, so short excursions between ticks still show.
    print(render_dashboard(sampler, width=56))

    # --- 2. Prometheus-style exposition ----------------------------------
    text = render_exposition(sampler=sampler)
    print("\nexposition snapshot (first 12 lines):")
    for line in text.splitlines()[:12]:
        print(f"  {line}")
    samples = parse_exposition(text)
    print(f"  ... {len(text.splitlines())} lines total, "
          f"{len(samples)} samples round-tripped")

    # --- 3. JSON-lines series dump ---------------------------------------
    buf = io.StringIO()
    n = dump_timeseries_jsonl(sampler, buf)
    print(f"\nJSONL dump: {n} lines, {len(buf.getvalue())} bytes "
          f"(one line per series / marker channel)")


if __name__ == "__main__":
    main()
