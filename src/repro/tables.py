"""The fixed-width text table every report in the package prints.

It lives below both :mod:`repro.bench` and :mod:`repro.telemetry` so
that telemetry can render tables without importing the harness.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["render_table"]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width table with a header rule; floats print with 3 decimals."""
    cells = [[str(h) for h in headers]] + [
        [f"{c:.3f}" if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

