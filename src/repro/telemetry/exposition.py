"""Prometheus-style text exposition of the telemetry state.

:func:`render_exposition` snapshots the log2 histograms of a
:class:`~repro.telemetry.histograms.MetricsRegistry` and/or the latest
values of a :class:`~repro.telemetry.timeseries.TimeSeriesSampler` into
the Prometheus text exposition format (version 0.0.4): ``# HELP`` /
``# TYPE`` comments, ``name{label="value"} value`` samples, histograms as
cumulative ``_bucket{le=...}`` series plus ``_sum`` / ``_count``.

:func:`parse_exposition` is the matching reader.  It exists so the
format stays honest: the round-trip test (render → parse → same names,
labels and values, no duplicates) is part of the tier-1 suite, and any
future series that would emit an unparsable or colliding line fails
there instead of in someone's scrape pipeline.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

__all__ = ["render_exposition", "parse_exposition", "ExpositionError"]

#: Valid Prometheus metric-name characters.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_START_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_KEY_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class ExpositionError(ValueError):
    """Raised by :func:`parse_exposition` on a malformed document."""


def sanitize_name(name: str) -> str:
    """Map a dotted internal metric name onto the Prometheus charset."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not out or not _NAME_RE.match(out):
        out = "_" + out
    return out


def _fmt_value(v: float) -> str:
    if v != v:
        raise ValueError("NaN cannot be exposed")
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    return repr(float(v))


def _escape_label_value(v: str) -> str:
    """Escape a label value per the text format: ``\\``, ``"``, newline."""
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape HELP text per the text format: ``\\`` and newline only."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{sanitize_name(k)}="{_escape_label_value(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class _Writer:
    """Accumulates lines and enforces sample uniqueness at render time."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._seen: set = set()
        self._typed: set = set()

    def header(self, name: str, mtype: str, help_text: str) -> None:
        if name in self._typed:
            return
        self._typed.add(name)
        self.lines.append(f"# HELP {name} {_escape_help(help_text)}")
        self.lines.append(f"# TYPE {name} {mtype}")

    def sample(
        self, name: str, value: float, labels: Optional[Dict[str, str]] = None
    ) -> None:
        key = (name, tuple(sorted((labels or {}).items())))
        if key in self._seen:
            raise ValueError(f"duplicate exposition sample: {key!r}")
        self._seen.add(key)
        self.lines.append(
            f"{name}{_fmt_labels(labels or {})} {_fmt_value(value)}"
        )


def render_exposition(
    metrics=None,
    sampler=None,
    namespace: str = "edc",
    exemplars: Optional[
        Dict[str, Tuple[Dict[str, str], float, float]]
    ] = None,
) -> str:
    """Render one scrape snapshot as Prometheus exposition text.

    ``metrics`` is a :class:`MetricsRegistry` (or ``None``) whose
    histograms render as cumulative buckets; ``sampler``
    a :class:`TimeSeriesSampler` (or ``None``) whose series contribute
    their *latest* point as gauges — labelled series (codec shares, slot
    classes) merge into one metric family with distinct label sets.

    ``exemplars`` optionally maps a *series name* (the sampler's dotted
    internal name, e.g. ``cluster.tenant_p95.tenant3``) to
    ``(labels, value, timestamp)``; matching sampler lines gain an
    OpenMetrics-style `` # {trace_id="7"} 0.0123 4.5`` suffix linking
    the sample to the trace behind it (see
    :meth:`~repro.telemetry.disttrace.DistTracer.exposition_exemplars`).
    """
    w = _Writer()
    ns = sanitize_name(namespace)

    if metrics is not None:
        for name in sorted(metrics.histograms):
            h = metrics.histograms[name]
            full = f"{ns}_{sanitize_name(name)}"
            w.header(full, "histogram", f"Log2 histogram {name!r}.")
            cum = h._zero
            # Only non-empty buckets are emitted; counts are cumulative,
            # so sparse upper bounds still parse as a valid histogram.
            if h._zero:
                w.sample(f"{full}_bucket", float(cum), {"le": "0.0"})
            for idx, count in enumerate(h._counts):
                if not count:
                    continue
                cum += count
                _lo, hi = h._bucket_bounds(idx)
                w.sample(f"{full}_bucket", float(cum), {"le": _fmt_value(hi)})
            w.sample(f"{full}_bucket", float(h.count), {"le": "+Inf"})
            w.sample(f"{full}_sum", h.sum)
            w.sample(f"{full}_count", float(h.count))

    if sampler is not None:
        # Group series by rendered family and emit each family as one
        # contiguous block, samples ordered by sorted label set (internal
        # name as tiebreak).  Lazily-created family members (per-codec,
        # per-region series appear as the replay discovers them) then
        # land in the same place regardless of discovery order, so two
        # scrapes of equivalent state diff cleanly line-for-line.
        families: Dict[str, List[tuple]] = {}
        for name in sampler.series:
            s = sampler.series[name]
            point = s.last()
            if point is None:
                continue
            _t, v = point
            full = f"{ns}_ts_{sanitize_name(s.metric)}"
            label_items = tuple(sorted((s.labels or {}).items()))
            families.setdefault(full, []).append(
                (label_items, name, v, s.metric)
            )
        for full in sorted(families):
            members = sorted(families[full])
            metric = min(m[3] for m in members)
            w.header(
                full, "gauge",
                f"Latest sample of time series family {metric!r}.",
            )
            for label_items, name, v, _metric in members:
                w.sample(full, v, dict(label_items) or None)
                ex = exemplars.get(name) if exemplars else None
                if ex is not None:
                    ex_labels, ex_value, ex_t = ex
                    w.lines[-1] += (
                        f" # {_fmt_labels(dict(ex_labels))} "
                        f"{_fmt_value(ex_value)} {_fmt_value(ex_t)}"
                    )
        for channel in sorted(sampler.markers):
            m = sampler.markers[channel]
            full = f"{ns}_marker_{sanitize_name(channel)}_total"
            w.header(full, "counter", f"Markers on channel {channel!r}.")
            w.sample(full, float(len(m) + m.dropped))
        full = f"{ns}_sampler_ticks_total"
        w.header(full, "counter", "Sampler ticks taken.")
        w.sample(full, float(sampler.ticks))

    return "\n".join(w.lines) + "\n" if w.lines else ""


def _scan_labels(
    s: str, lineno: int
) -> Tuple[List[Tuple[str, str]], str]:
    """Scan a ``{...}`` label body, honouring quoting and escapes.

    ``s`` starts at the opening brace; returns the decoded ``(key,
    value)`` pairs and the remainder after the closing brace.  A plain
    regex cannot do this: escaped quotes and literal ``}`` inside a
    quoted value must not terminate the body.
    """
    labels: List[Tuple[str, str]] = []
    i = 1
    while True:
        while i < len(s) and s[i] in " \t":
            i += 1
        if i < len(s) and s[i] == "}":
            return labels, s[i + 1:]
        j = i
        while j < len(s) and (s[j].isalnum() or s[j] == "_"):
            j += 1
        key = s[i:j]
        if not _LABEL_KEY_RE.match(key):
            raise ExpositionError(f"line {lineno}: bad label key {key!r}")
        if j >= len(s) or s[j] != "=":
            raise ExpositionError(f"line {lineno}: expected '=' after {key!r}")
        j += 1
        if j >= len(s) or s[j] != '"':
            raise ExpositionError(
                f"line {lineno}: label {key!r} value is not quoted"
            )
        j += 1
        buf: List[str] = []
        closed = False
        while j < len(s):
            ch = s[j]
            if ch == "\\":
                if j + 1 >= len(s):
                    raise ExpositionError(
                        f"line {lineno}: dangling escape in label {key!r}"
                    )
                nxt = s[j + 1]
                if nxt == "\\":
                    buf.append("\\")
                elif nxt == '"':
                    buf.append('"')
                elif nxt == "n":
                    buf.append("\n")
                else:
                    raise ExpositionError(
                        f"line {lineno}: bad escape '\\{nxt}' in "
                        f"label {key!r}"
                    )
                j += 2
            elif ch == '"':
                j += 1
                closed = True
                break
            else:
                buf.append(ch)
                j += 1
        if not closed:
            raise ExpositionError(
                f"line {lineno}: unterminated label value for {key!r}"
            )
        labels.append((key, "".join(buf)))
        while j < len(s) and s[j] in " \t":
            j += 1
        if j < len(s) and s[j] == ",":
            i = j + 1
        elif j < len(s) and s[j] == "}":
            return labels, s[j + 1:]
        else:
            raise ExpositionError(
                f"line {lineno}: expected ',' or '}}' after label {key!r}"
            )


def parse_exposition(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text back into ``{(name, labels): value}``.

    Labels are a sorted tuple of ``(key, value)`` pairs with the
    text-format escapes (``\\\\``, ``\\"``, ``\\n``) decoded.  Raises
    :class:`ExpositionError` on malformed lines or duplicate samples —
    the two failure modes a Prometheus scraper rejects a target for.
    """
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _NAME_START_RE.match(line)
        if m is None:
            raise ExpositionError(f"line {lineno}: unparsable: {raw!r}")
        name = m.group(0)
        rest = line[m.end():]
        labels: List[Tuple[str, str]] = []
        if rest.startswith("{"):
            labels, rest = _scan_labels(rest, lineno)
        # OpenMetrics-style exemplar suffix (` # {labels} value ts`):
        # metadata about the sample, not part of its value — strip it.
        exemplar_at = rest.find(" # ")
        if exemplar_at != -1:
            rest = rest[:exemplar_at]
        value_str = rest.strip()
        if not value_str or any(c in value_str for c in " \t"):
            raise ExpositionError(f"line {lineno}: unparsable: {raw!r}")
        try:
            value = float(value_str)
        except ValueError as exc:
            raise ExpositionError(
                f"line {lineno}: bad value {value_str!r}"
            ) from exc
        key = (name, tuple(sorted(labels)))
        if key in out:
            raise ExpositionError(f"line {lineno}: duplicate sample {key!r}")
        out[key] = value
    return out
