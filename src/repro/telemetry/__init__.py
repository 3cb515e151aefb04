"""Telemetry: simulation-clock tracing, streaming metrics, probes, exporters.

A zero-dependency observability layer for the EDC stack.  Four pieces:

- :mod:`repro.telemetry.spans` — :class:`Span`/:class:`Tracer` keyed to
  the simulation clock, with parent/child nesting and per-layer tags
  (``estimate``, ``compress``, ``queue``, ``flash_program``,
  ``gc_stall``, ``read_decompress``).
- :mod:`repro.telemetry.histograms` — fixed-bucket log2 histograms
  (p50/p95/p99/p999 in bounded memory), counters, gauges and a registry.
- :mod:`repro.telemetry.probes` — the :class:`Telemetry` facade, a
  subscriber of the device stack's event seam
  (:mod:`repro.sim.events`).  Instrumentation is opt-in:
  ``telemetry.bind_device(device)`` (or ``replay(telemetry=...)``);
  a stack nothing subscribed to runs no observer code.
- :mod:`repro.telemetry.exporters` — JSON-lines trace dump, per-layer
  latency-breakdown table and an ASCII flamegraph summary (wired into
  ``python -m repro.bench breakdown --telemetry``).
- :mod:`repro.telemetry.timeseries` — ring-buffered time series and the
  simulation-clock periodic sampler (``replay(sampler=...)`` /
  ``python -m repro.bench breakdown --metrics``).
- :mod:`repro.telemetry.exposition` — Prometheus-style text exposition
  (render + parse) over the metrics registry and sampled series.
- :mod:`repro.telemetry.dashboard` — ASCII multi-panel sparkline
  dashboard with band-switch markers.
- :mod:`repro.telemetry.audit` — per-write decision provenance
  (:class:`DecisionAuditor`): policy inputs, shadow-policy
  counterfactual accounting and JSONL dumps consumed by
  ``python -m repro.bench diff``.
- :mod:`repro.telemetry.disttrace` — cluster-wide distributed tracing
  (:class:`DistTracer`): one causal trace per tenant request across
  throttle/queue/split/device/migration, critical-path attribution
  with an exact conservation check, and per-tenant trace exemplars.
- :mod:`repro.telemetry.alerts` — deterministic multi-window SLO
  burn-rate alerting (:class:`BurnRateEngine`) over the sampled
  per-tenant series, with an ASCII alert timeline.
- :mod:`repro.telemetry.devhealth` — device introspection
  (:class:`DeviceHealth`): SMART-style health snapshots, the
  space-efficiency waterfall with an exact conservation check, the
  per-GC-episode audit and the LBA-region temperature map
  (``python -m repro.bench breakdown --health``).
"""

from repro.telemetry.histograms import (
    Counter,
    Gauge,
    Log2Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import LAYERS, Span, Tracer
from repro.telemetry.probes import Telemetry
from repro.telemetry.exporters import (
    ascii_flamegraph,
    dump_chrome_trace,
    dump_jsonl,
    layer_breakdown_rows,
    render_layer_breakdown,
    render_telemetry_summary,
)
from repro.telemetry.disttrace import (
    CriticalPathReport,
    DistTracer,
    PathSegment,
    TraceExemplar,
    analyze_critical_paths,
    child_index,
    critical_path,
)
from repro.telemetry.alerts import (
    AlertEvent,
    BurnRateEngine,
    render_alert_timeline,
)
from repro.telemetry.timeseries import (
    MarkerSeries,
    RingSeries,
    TimeSeriesSampler,
    bind_standard_metrics,
    dump_timeseries_jsonl,
)
from repro.telemetry.exposition import (
    ExpositionError,
    parse_exposition,
    render_exposition,
)
from repro.telemetry.dashboard import render_dashboard, sparkline
from repro.telemetry.devhealth import (
    DeviceHealth,
    GcEpisode,
    TemperatureMap,
    dump_health_json,
    render_heatmap,
    render_smart,
    render_waterfall,
)
from repro.telemetry.audit import (
    AUDIT_SCHEMA_VERSION,
    DecisionAuditor,
    dump_audit_jsonl,
    parse_shadow_spec,
    shadow_policy,
)

__all__ = [
    "Span",
    "Tracer",
    "LAYERS",
    "Log2Histogram",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Telemetry",
    "dump_jsonl",
    "dump_chrome_trace",
    "DistTracer",
    "TraceExemplar",
    "PathSegment",
    "CriticalPathReport",
    "child_index",
    "critical_path",
    "analyze_critical_paths",
    "AlertEvent",
    "BurnRateEngine",
    "render_alert_timeline",
    "layer_breakdown_rows",
    "render_layer_breakdown",
    "render_telemetry_summary",
    "ascii_flamegraph",
    "RingSeries",
    "MarkerSeries",
    "TimeSeriesSampler",
    "bind_standard_metrics",
    "dump_timeseries_jsonl",
    "ExpositionError",
    "render_exposition",
    "parse_exposition",
    "render_dashboard",
    "sparkline",
    "DeviceHealth",
    "GcEpisode",
    "TemperatureMap",
    "dump_health_json",
    "render_smart",
    "render_waterfall",
    "render_heatmap",
    "AUDIT_SCHEMA_VERSION",
    "DecisionAuditor",
    "dump_audit_jsonl",
    "parse_shadow_spec",
    "shadow_policy",
]
