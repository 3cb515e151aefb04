"""ASCII chart rendering for terminal-friendly figure output.

The benchmarks print their data as tables; these helpers additionally
render them as horizontal bar charts and line sketches so the paper's
figures are visually recognisable straight from ``pytest -s`` or
``python -m repro.bench exhibit`` output.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["grouped_bar_chart", "line_sketch"]

_FULL = "█"
_PART = " ▏▎▍▌▋▊▉"


def _bar(value: float, vmax: float, width: int) -> str:
    if vmax <= 0:
        return ""
    cells = value / vmax * width
    full = int(cells)
    frac = cells - full
    out = _FULL * full
    part = int(frac * 8)
    if part:
        out += _PART[part]
    return out


def grouped_bar_chart(
    groups: Mapping[str, Mapping[str, float]],
    title: str = "",
    width: int = 40,
    fmt: str = "{:.2f}",
) -> str:
    """Bars grouped by an outer label (trace) with inner labels (scheme).

    This is the layout of the paper's Figs 8-11: one cluster of scheme
    bars per trace.
    """
    if not groups:
        return title
    vmax = max(v for inner in groups.values() for v in inner.values())
    inner_w = max(len(k) for inner in groups.values() for k in inner)
    lines = [title] if title else []
    for group, inner in groups.items():
        lines.append(f"{group}:")
        for k, v in inner.items():
            lines.append(
                f"  {k.ljust(inner_w)}  {_bar(v, vmax, width).ljust(width)}  "
                + fmt.format(v)
            )
    return "\n".join(lines)


def line_sketch(
    xs: Sequence[float],
    ys: Sequence[float],
    title: str = "",
    width: int = 60,
    height: int = 12,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Rough scatter/line sketch of one series on a character grid."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    lines = [title] if title else []
    if not xs:
        return "\n".join(lines)
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = int((x - xmin) / xspan * (width - 1))
        row = height - 1 - int((y - ymin) / yspan * (height - 1))
        grid[row][col] = "*"
    lines.append(f"{y_label} max={ymax:.4g}")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}: {xmin:.4g} .. {xmax:.4g}   (y min={ymin:.4g})")
    return "\n".join(lines)
