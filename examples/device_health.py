#!/usr/bin/env python3
"""Device health tour: SMART page, space waterfall, temperature heatmap.

Replays a Fin1 slice against a deliberately small EDC device (so garbage
collection actually runs), with a
:class:`~repro.telemetry.DeviceHealth` collector attached, then prints:

1. the SMART-style health page — wear percentiles and the erase-count
   histogram, spare/retired capacity, the write-amplification split
   (host vs metadata vs GC vs rebuild), GC efficiency and the
   lifetime/DWPD projection;
2. the space-efficiency waterfall — logical bytes → compressed payload
   → per-size-class slack → free slots → retired capacity, verified
   against the allocator's own counters (a drifted counter raises
   :class:`~repro.flash.introspect.SpaceAccountingError` instead of
   rendering);
3. the per-GC-episode audit (victim block, pages moved, bytes
   reclaimed, efficiency, trigger reason);
4. the LBA-region temperature map, plus the combined metrics dashboard
   with the waterfall/heatmap panels appended;
5. the ``health.json`` payload a ``breakdown --health-dump`` run would write.

Health introspection is purely observational: the same replay without
the collector produces bit-identical allocator/mapping digests (the
test suite pins this).

Run:  python examples/device_health.py
"""

import io
import json

from repro.bench.experiments import ReplayConfig, replay
from repro.telemetry import (
    DeviceHealth,
    TimeSeriesSampler,
    dump_health_json,
    render_dashboard,
)
from repro.traces.workloads import make_workload


def main() -> None:
    # --- instrumented replay ---------------------------------------------
    # A 16 MiB device with the trace folded onto half its space: hot
    # LBAs recur, frontiers refill, and GC produces episodes to audit.
    health = DeviceHealth()
    sampler = TimeSeriesSampler(interval=0.25)
    trace = make_workload("Fin1", max_requests=12_000, seed=42)
    result = replay(
        trace, "EDC",
        ReplayConfig(capacity_mb=16, fold_fraction=0.5),
        sampler=sampler, health=health,
    )
    print(f"replayed {result.n_requests} Fin1 requests under EDC "
          f"(mean response {result.mean_response * 1e3:.3f} ms)\n")

    # --- 1..4: the full health exhibit -----------------------------------
    # render() = SMART page + verified waterfall + GC audit + heatmap.
    print(health.render())

    # The dashboard grows smart.* / space.* / heat.* sparkline families
    # automatically, and `health=` appends waterfall + heatmap panels.
    print()
    print(render_dashboard(sampler, width=56, health=health))

    # --- 5. the machine-readable dump ------------------------------------
    fp = io.StringIO()
    dump_health_json(health, fp)
    payload = json.loads(fp.getvalue())
    wa = payload["smart"]["wa_split"]
    print("\nhealth.json highlights:")
    print(f"  WA split: host={wa['host']}  metadata={wa['metadata']}  "
          f"gc={wa['gc']}  rebuild={wa['rebuild']}")
    print(f"  GC episodes: {payload['gc_totals']['episodes']} "
          f"({payload['gc_totals']['by_trigger']})")
    print(f"  waterfall stages: "
          f"{' -> '.join(s['name'] for s in payload['space']['stages'])}")
    print(f"  realized ratio: {payload['space']['realized_ratio']:.3f}")


if __name__ == "__main__":
    main()
