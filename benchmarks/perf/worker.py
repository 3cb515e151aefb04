"""One run of one workload in a fresh process; prints one JSON line.

The parent (``run.py``) starts a worker per repeat so that no repeat
inherits another's allocator state, memo or import cache, and filters
the repeats' segment times against each other.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--stamps", type=int, required=True)
    parser.add_argument("--spans-out", default=None,
                        help="trace this run and write the raw span sample here")
    args = parser.parse_args()

    t_import = time.perf_counter()
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import numpy as np
    import repro
    import workloads
    from timing import SMOKE_SCALE

    if not os.path.abspath(repro.__file__).startswith(ROOT + os.sep):
        print(f"repro imported from {repro.__file__}, not from {ROOT}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import

    tracer = None
    timed_totals: dict = {}
    on_region = None
    if args.spans_out is not None:
        import spans

        marks = []

        def on_region(opening: bool) -> None:
            snap = tracer.snapshot()
            if opening:
                marks.append(snap)
            else:
                spans.add(timed_totals, spans.delta(snap, marks.pop()))

        n_requests = sum(workloads.SIZES[args.workload].values()) * args.scale
        if args.workload == "fleet-rf2":
            n_requests *= workloads.N_TENANTS
        # ~40 spans per request, so this keeps the raw sample under the cap
        tracer = spans.Tracer(
            sample_every=int(n_requests * 40 / spans.MAX_RAW_SPANS) + 1, seed=args.seed)
        patches = spans.install(tracer)
        # discovery: find the entry points other layers call, unwrap the rest
        workloads.WORKLOAD_FUNCS[args.workload](
            workloads.Recorder(0), args.seed, SMOKE_SCALE)
        spans.prune(patches)
        tracer.reset(args.seed)

    rec = workloads.Recorder(args.stamps, on_region=on_region)
    gc.collect()
    out = workloads.WORKLOAD_FUNCS[args.workload](rec, args.seed, args.scale)

    pooled = np.concatenate(out.latencies)
    record = {
        "import_s": import_s,
        "setup": rec.setup,
        "segments": rec.segments,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": out.attempted,
        "completed": out.completed,
        "writes_in": out.writes_in,
        "failures": out.failures,
        "checks": out.checks,
        "counts": out.counts,
        # simulated results: must repeat bit for bit, so sent as exact reprs
        "sim": {
            "sim_mean_response_ms": repr(float(pooled.mean()) * 1e3),
            "sim_p99_response_ms": repr(float(np.percentile(pooled, 99)) * 1e3),
            "flash_bytes_per_host_byte": repr(out.flash_bytes / out.write_bytes_in),
        },
    }
    if tracer is not None:
        final = tracer.snapshot()
        record["trace"] = {
            "timed_layers": spans.by_layer(timed_totals),
            "entries": {f"{layer}:{entry}": vals for (layer, entry), vals in final.items()},
            "counts": tracer.counts,
            "requests_seen": tracer.requests_seen,
            "raw_spans": tracer.dump_raw(args.spans_out),
            "sample_every": tracer.sample_every,
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
