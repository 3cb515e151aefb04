"""ASCII multi-panel dashboard over sampled time series.

Renders a :class:`~repro.telemetry.timeseries.TimeSeriesSampler` as one
sparkline row per series, grouped into panels by metric family prefix
(``monitor``, ``policy``, ``codec``, ``alloc``, ``queue``, ``gc``,
``flash``, ...).  Band-switch markers recorded on the ``band_switch``
channel render as a caret row aligned under the ``policy.band``
sparkline, so codec switches are visible *in time*, not just counted.

Pure text, zero dependencies: output drops into pytest logs,
EXPERIMENTS.md and terminals unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.telemetry.timeseries import TimeSeriesSampler

__all__ = ["sparkline", "render_dashboard"]

#: Eight-level block ramp used for sparklines.
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Resample ``values`` to ``width`` columns of block characters.

    Each column shows the mean of its slice of samples, scaled to the
    series' own min/max.  A constant or single-sample series has no
    scale of its own, so it renders as a flat midline rather than
    pinning to the bottom (which reads as "zero") or dividing by the
    zero span.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1: {width!r}")
    if not values:
        return ""
    n = len(values)
    cols: List[float] = []
    if n <= width:
        cols = [float(v) for v in values]
    else:
        for i in range(width):
            lo = i * n // width
            hi = max(lo + 1, (i + 1) * n // width)
            chunk = values[lo:hi]
            cols.append(sum(chunk) / len(chunk))
    vmin = min(cols)
    vmax = max(cols)
    span = vmax - vmin
    if span <= 0:
        mid = SPARK_CHARS[(len(SPARK_CHARS) - 1) // 2]
        return mid * len(cols)
    out = []
    for v in cols:
        level = int((v - vmin) / span * (len(SPARK_CHARS) - 1))
        out.append(SPARK_CHARS[level])
    return "".join(out)


def _marker_row(
    marker_times: Sequence[float],
    t0: float,
    t1: float,
    width: int,
) -> str:
    """A row of spaces with ``^`` at each marker's time position."""
    row = [" "] * width
    span = t1 - t0
    for t in marker_times:
        if span <= 0:
            col = 0
        else:
            col = int((t - t0) / span * (width - 1))
        if 0 <= col < width:
            row[col] = "^"
    return "".join(row)


def _fmt(v: float) -> str:
    a = abs(v)
    if a >= 10000 or (0 < a < 0.001):
        return f"{v:.3g}"
    if a >= 100:
        return f"{v:.1f}"
    return f"{v:.3f}"


def render_dashboard(
    sampler: TimeSeriesSampler,
    width: int = 60,
    alerts=None,
    health=None,
) -> str:
    """The multi-panel dashboard, ready to print.

    Every family present renders as one panel, in name order.
    ``alerts`` optionally takes a
    :class:`~repro.telemetry.alerts.BurnRateEngine`; its per-tenant
    alert timeline renders as a final panel aligned with the
    sparklines' time range.  ``health`` optionally takes a bound
    :class:`~repro.telemetry.devhealth.DeviceHealth`; its space
    waterfall and LBA temperature heatmap render as final panels.
    """
    nonempty = {
        name: s for name, s in sampler.series.items() if len(s) > 0
    }
    lines: List[str] = []
    t_lo, t_hi = _time_range(sampler)
    head = (
        f"time-series dashboard: {len(nonempty)} series, "
        f"{sampler.ticks} ticks @ {sampler.interval:g}s"
    )
    if t_hi > t_lo:
        head += f", t = [{t_lo:.2f}s .. {t_hi:.2f}s]"
    lines.append(head)

    groups: Dict[str, List[str]] = {}
    for name in sorted(nonempty):
        groups.setdefault(name.split(".", 1)[0], []).append(name)

    label_w = max((len(n) for n in nonempty), default=10) + 2
    bm = sampler.markers.get("band_switch")
    band_markers = [t for t, _ in bm.events()] if bm is not None else []

    for family, names in sorted(groups.items()):
        lines.append("")
        lines.append(f"── {family} " + "─" * max(0, width + label_w - len(family) - 4))
        for name in names:
            s = nonempty[name]
            ts, vs = s.points()
            spark = sparkline(vs, width)
            last = vs[-1]
            lines.append(
                f"{name:<{label_w}}{spark:<{width}}  "
                f"min {_fmt(min(vs))}  max {_fmt(max(vs))}  last {_fmt(last)}"
            )
            if name == "policy.band" and band_markers:
                lines.append(
                    " " * label_w
                    + _marker_row(band_markers, ts[0], ts[-1], min(width, len(spark)))
                    + "  band switches"
                )
    for channel in sorted(sampler.markers):
        m = sampler.markers[channel]
        if len(m) == 0:
            continue
        shown = ", ".join(
            f"{t:.2f}s {label}" for t, label in m.events()[:6]
        )
        more = len(m) - min(len(m), 6)
        suffix = f" (+{more} more)" if more > 0 else ""
        lines.append("")
        lines.append(f"markers[{channel}]: {len(m)} — {shown}{suffix}")
    if alerts is not None and alerts.states:
        from repro.telemetry.alerts import render_alert_timeline

        lines.append("")
        lines.append(
            "── alerts " + "─" * max(0, width + label_w - 10)
        )
        lines.append(
            render_alert_timeline(alerts, t_lo, t_hi, width=width)
        )
    if health is not None:
        from repro.telemetry.devhealth import render_heatmap, render_waterfall

        lines.append("")
        lines.append("── space waterfall " + "─" * max(0, width + label_w - 19))
        lines.append(render_waterfall(health.waterfall(), width=width))
        lines.append("")
        lines.append("── temperature map " + "─" * max(0, width + label_w - 19))
        lines.append(render_heatmap(health.heat, t_hi, width=width))
    return "\n".join(lines)


def _time_range(sampler: TimeSeriesSampler) -> Tuple[float, float]:
    lo = float("inf")
    hi = float("-inf")
    for s in sampler.series.values():
        if len(s) == 0:
            continue
        ts, _ = s.points()
        lo = min(lo, ts[0])
        hi = max(hi, ts[-1])
    if lo > hi:
        return 0.0, 0.0
    return lo, hi
