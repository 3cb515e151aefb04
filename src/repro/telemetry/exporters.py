"""Exporters: JSON-lines trace dump, breakdown table, ASCII flamegraph.

Everything renders from a :class:`~repro.telemetry.probes.Telemetry`
(or its tracer) to plain text / JSON lines, so results drop into
pytest output, EXPERIMENTS.md and shell pipelines unchanged.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, TextIO, Tuple

from repro.tables import render_table
from repro.telemetry.probes import READ_LAYERS, WRITE_LAYERS, Telemetry
from repro.telemetry.spans import Span, Tracer

__all__ = [
    "dump_jsonl",
    "dump_chrome_trace",
    "layer_breakdown_rows",
    "render_layer_breakdown",
    "render_telemetry_summary",
    "ascii_flamegraph",
]


# ----------------------------------------------------------------------
# JSON-lines trace dump
# ----------------------------------------------------------------------
def dump_jsonl(tracer: Tracer, fp: TextIO) -> int:
    """Write every retained span as one JSON object per line.

    Returns the number of spans written.  A truncated trace announces
    itself up front: when the tracer's retention cap dropped spans, a
    header line with the retained/dropped counts precedes the spans
    (and a trailing metadata line repeats the drop count), so a partial
    dump can never masquerade as a complete trace.
    """
    n = 0
    if tracer.dropped:
        fp.write(json.dumps({"meta": "trace_header",
                             "retained": len(tracer),
                             "dropped": tracer.dropped},
                            sort_keys=True))
        fp.write("\n")
    for span in tracer:
        fp.write(json.dumps(span.to_dict(), sort_keys=True))
        fp.write("\n")
        n += 1
    if tracer.dropped:
        fp.write(json.dumps({"meta": "dropped_spans",
                             "count": tracer.dropped}))
        fp.write("\n")
    return n


# ----------------------------------------------------------------------
# Chrome trace-event / Perfetto JSON export
# ----------------------------------------------------------------------
def _chrome_group(span: Span, by_id: Dict[int, Span]) -> str:
    """Process group of a span: nearest ``shard`` tag up the ancestry,
    else ``migration`` for migration-layer chains, else ``cluster``."""
    cur: Optional[Span] = span
    hops = 0
    while cur is not None and hops < 64:
        if cur.tags and "shard" in cur.tags:
            return f"shard:{cur.tags['shard']}"
        if cur.layer == "migration":
            return "migration"
        cur = by_id.get(cur.parent_id) if cur.parent_id is not None else None
        hops += 1
    return "cluster"


def dump_chrome_trace(tracer: Tracer, fp: TextIO) -> int:
    """Write the trace as Chrome trace-event JSON (Perfetto-loadable).

    Every finished span becomes one complete (``"X"``) event with
    microsecond timestamps; process groups (``pid``) separate shards /
    migration / cluster-tier work and threads (``tid``) separate
    layers, both named through metadata events.  The tracer retains
    finished spans only; ``otherData.open_spans`` counts the spans still
    open at the dump and ``otherData.dropped_spans`` the retention cap's
    drops.  Returns the number of span events written.
    """
    by_id: Dict[int, Span] = {s.span_id: s for s in tracer}
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[int, str], int] = {}
    events: List[Dict[str, object]] = []
    for span in tracer:
        group = _chrome_group(span, by_id)
        pid = pids.get(group)
        if pid is None:
            pid = pids[group] = len(pids) + 1
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": group},
            })
        tkey = (pid, span.layer)
        tid = tids.get(tkey)
        if tid is None:
            tid = tids[tkey] = sum(1 for k in tids if k[0] == pid) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": span.layer},
            })
        args: Dict[str, object] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.tags:
            args.update({k: v for k, v in span.tags.items()})
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.layer,
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    n = sum(1 for e in events if e["ph"] == "X")
    json.dump({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulation",
            "spans": n,
            "open_spans": tracer.open_spans,
            "dropped_spans": tracer.dropped,
        },
    }, fp)
    fp.write("\n")
    return n


# ----------------------------------------------------------------------
# per-layer latency breakdown
# ----------------------------------------------------------------------
def layer_breakdown_rows(
    telemetry: Telemetry,
) -> Dict[str, List[List[object]]]:
    """``{"write": rows, "read": rows}`` of the per-layer breakdown.

    Row shape: ``[layer, total_s, share_of_end_to_end, mean_us_per_req]``.
    The write rows end with ``end_to_end`` and the ``unattributed``
    residual (near zero on a single SSD: the sum-check).
    """
    out: Dict[str, List[List[object]]] = {}
    for path, layers, bd in (
        ("write", WRITE_LAYERS, telemetry.write_breakdown()),
        ("read", READ_LAYERS, telemetry.read_breakdown()),
    ):
        total = bd["end_to_end"]
        n = bd["n_requests"]
        rows: List[List[object]] = []
        for layer in layers:
            secs = bd[layer]
            rows.append([
                layer,
                secs,
                (secs / total) if total > 0 else 0.0,
                (secs / n * 1e6) if n else 0.0,
            ])
        rows.append([
            "end_to_end", total, 1.0 if total > 0 else 0.0,
            (total / n * 1e6) if n else 0.0,
        ])
        rows.append([
            "unattributed", bd["unattributed"],
            (bd["unattributed"] / total) if total > 0 else 0.0,
            (bd["unattributed"] / n * 1e6) if n else 0.0,
        ])
        out[path] = rows
    return out


def render_layer_breakdown(telemetry: Telemetry) -> str:
    """Both breakdown tables, ready to print."""
    rows = layer_breakdown_rows(telemetry)
    parts = []
    for path, label in (("write", "write path"), ("read", "read path")):
        n = int(telemetry.write_requests if path == "write"
                else telemetry.read_requests)
        parts.append(render_table(
            ["layer", "total_s", "share", "mean_us/req"],
            rows[path],
            title=f"Per-layer latency breakdown — {label} ({n} requests)",
        ))
    return "\n\n".join(parts)


# ----------------------------------------------------------------------
# ASCII flamegraph
# ----------------------------------------------------------------------
def _span_paths(tracer: Tracer) -> Dict[Tuple[str, ...], Tuple[float, int]]:
    """Aggregate spans into name-path -> (total seconds, count)."""
    by_id: Dict[int, Span] = {s.span_id: s for s in tracer}
    paths: Dict[Tuple[str, ...], Tuple[float, int]] = {}
    for span in tracer:
        names = [span.name]
        pid = span.parent_id
        hops = 0
        while pid is not None and hops < 32:
            parent = by_id.get(pid)
            if parent is None:
                break
            names.append(parent.name)
            pid = parent.parent_id
            hops += 1
        key = tuple(reversed(names))
        t, n = paths.get(key, (0.0, 0))
        paths[key] = (t + span.duration, n + 1)
    return paths


def ascii_flamegraph(
    tracer: Tracer, width: int = 48, max_rows: int = 40
) -> str:
    """Flamegraph-style summary: one bar per aggregated span path.

    Children are indented under their parents; bar width is the path's
    total time relative to the root total.  Self-explanatory in a
    terminal where an interactive flamegraph is not available.
    """
    paths = _span_paths(tracer)
    if not paths:
        return "(no spans recorded)"
    roots_total = sum(t for (p, (t, _n)) in paths.items() if len(p) == 1)
    if roots_total <= 0:
        roots_total = max(t for t, _n in paths.values())
    lines = [f"flame: total {roots_total * 1e3:.3f} ms over root spans"]
    shown = 0
    for path in sorted(paths, key=lambda p: (p[:1], -paths[p][0], p)):
        total, count = paths[path]
        if shown >= max_rows:
            lines.append(f"  ... {len(paths) - shown} more paths")
            break
        frac = total / roots_total if roots_total else 0.0
        bar = "#" * max(1, int(round(frac * width)))
        indent = "  " * (len(path) - 1)
        lines.append(
            f"{indent}{path[-1]:<{max(1, 24 - len(indent))}} "
            f"{bar:<{width}} {total * 1e3:9.3f} ms  n={count}"
        )
        shown += 1
    if tracer.dropped:
        lines.append(f"({tracer.dropped} spans dropped by retention cap)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# combined summary
# ----------------------------------------------------------------------
def render_telemetry_summary(
    telemetry: Telemetry, flame: bool = True
) -> str:
    """Breakdown tables + latency histograms + (optionally) the flamegraph."""
    parts = [render_layer_breakdown(telemetry)]

    m = telemetry.metrics
    hist_rows = []
    for name, h in sorted(m.histograms.items()):
        if not h.count:
            continue
        q = h.quantiles()
        hist_rows.append([
            name, int(h.count), h.mean() * 1e6, q["p50"] * 1e6,
            q["p95"] * 1e6, q["p99"] * 1e6, q["p99_9"] * 1e6,
        ])
    if hist_rows:
        parts.append(render_table(
            ["histogram", "n", "mean_us", "p50_us", "p95_us", "p99_us",
             "p999_us"],
            hist_rows, title="Latency histograms (log2 buckets)",
        ))
    if flame:
        parts.append(ascii_flamegraph(telemetry.tracer))
    return "\n\n".join(parts)
