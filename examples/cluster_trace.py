#!/usr/bin/env python3
"""Distributed tracing demo: one causal trace per request, fleet-wide.

Runs the sharded multi-tenant exhibit under a cluster-wide
:class:`~repro.telemetry.disttrace.DistTracer` plus a burn-rate alert
engine and shows the whole observability surface:

1. the traced fleet report with the **critical-path attribution** —
   every sampled request's longest causal chain (throttle → QoS queue →
   shard part → device layers) must sum to its end-to-end latency
   exactly, and the aggregate says where fleet time actually went;
2. the causal structure of the single slowest request, span by span;
3. **SLO burn-rate alerting**: the overloaded throttled tenant fires a
   deterministic multi-window alert and clears it once the burst
   drains, rendered as an ASCII timeline;
4. trace **exemplars** in the Prometheus exposition — each tenant's
   p95 line carries the trace id of its worst request;
5. a Chrome trace-event export (load `cluster_trace.json` in
   chrome://tracing or https://ui.perfetto.dev);
6. proof that tracing is free: the same run without the tracer is
   bit-identical (same horizon, same per-tenant latency samples).

Run:  python examples/cluster_trace.py
"""

from repro.bench.cluster import render, run_cluster
from repro.telemetry import (
    BurnRateEngine,
    TimeSeriesSampler,
    child_index,
    critical_path,
    dump_chrome_trace,
    render_alert_timeline,
    render_exposition,
)


def main() -> None:
    # --- 1. the traced fleet exhibit -------------------------------------
    sampler = TimeSeriesSampler(interval=0.25)
    engine = BurnRateEngine()
    report = run_cluster(
        n_shards=3, n_tenants=6, max_requests=300,
        sampler=sampler, alerts=engine, trace=True,
    )
    print(render(report))
    assert report.ok, report.failures

    # --- 2. the slowest request, span by span ----------------------------
    print()
    dist = report.live["tracing"]
    worst = report.live["critical"].slowest[0]
    root = next(
        s for s in dist.tracer if s.span_id == worst.root_span_id
    )
    print(f"slowest request: {root.name} trace {worst.trace_id} "
          f"({worst.tenant}), {worst.latency * 1e3:.3f} ms end to end")
    for seg in critical_path(root, child_index(dist.tracer)):
        print(f"  {seg.start:9.6f}s  {seg.layer:<14} {seg.name:<22} "
              f"{seg.duration * 1e6:9.1f} us")

    # --- 3. the alert timeline -------------------------------------------
    print()
    t1 = max(e.t for e in engine.events) + 0.5 if engine.events else 1.0
    print(render_alert_timeline(engine, 0.0, t1, width=60))
    kinds = [e.kind for e in engine.events]
    assert "fire" in kinds, "the overloaded tenant should have paged"

    # --- 4. exemplars in the exposition ----------------------------------
    print()
    text = render_exposition(
        sampler=sampler, exemplars=dist.exposition_exemplars()
    )
    for line in text.splitlines():
        if "tenant_p95" in line and " # " in line:
            print(line)

    # --- 5. Perfetto-loadable trace --------------------------------------
    print()
    with open("cluster_trace.json", "w", encoding="utf-8") as fp:
        n = dump_chrome_trace(dist.tracer, fp)
    print(f"wrote {n} trace events to cluster_trace.json "
          f"(open in chrome://tracing or ui.perfetto.dev)")

    # --- 6. tracing is free ----------------------------------------------
    bare = run_cluster(n_shards=3, n_tenants=6, max_requests=300)
    same = (
        bare.results == report.results
        and bare.sections["tenants"] == report.sections["tenants"]
    )
    print(f"traced run bit-identical to untraced run: {same}")
    assert same


if __name__ == "__main__":
    main()
