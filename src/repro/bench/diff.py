"""Diff two decision-audit dumps: did the *policy behaviour* change?

The scalar regression gate (:mod:`repro.bench.regress`) catches drift in
headline metrics, but two runs can post identical mean response times
while making very different decisions — e.g. a band-threshold change
that trades gzip selections in one band for lzf in another.  This tool
compares the **decision distributions** of two audit dumps produced by
``python -m repro.bench breakdown --audit --audit-dump PATH`` (see
:mod:`repro.telemetry.audit`) and flags shifts the scalar gate cannot
see.

Usage::

    python -m repro.bench diff A.jsonl B.jsonl
    python -m repro.bench diff A.jsonl B.jsonl --max-shift 0.05
    python -m repro.bench diff A.jsonl B.jsonl --max-latency-delta 0.15

Checks (``A`` is the reference, ``B`` the candidate):

- **decision-distribution shift** — total-variation distance between
  the codec-selection distributions, overall and per band
  (``--max-shift``, default 0.10);
- **per-band latency delta** — relative change of mean response time
  per decision (``--max-latency-delta``, default 0.10);
- **per-band ratio delta** — relative change of the stored compression
  ratio, logical/stored bytes (``--max-ratio-delta``, default 0.05);
- a band populated in only one dump is always a violation (a policy
  that stopped/started using a band changed behaviour by definition).

Exit codes:

====  ============================================================
0     dumps comparable, every check within threshold
1     at least one threshold exceeded (or a band appeared/vanished)
64    usage error, unreadable dump, or incompatible schema/policy
====  ============================================================

Diffing a dump against itself always exits 0, which is the CI smoke
invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["AuditDump", "AuditDiffError", "diff_dumps", "render_diff"]

from repro.tables import render_table
from repro.telemetry.audit import AUDIT_SCHEMA_VERSION

#: Default thresholds, also documented in the module docstring.
DEFAULT_MAX_SHIFT = 0.10
DEFAULT_MAX_LATENCY_DELTA = 0.10
DEFAULT_MAX_RATIO_DELTA = 0.05

#: JSON band key for "no band ladder" normalised to this sortable int.
_NO_BAND = -1

#: the line kinds kept for diffing -> the numeric fields each must carry
#: besides its integer ``n``
_KEPT = {
    "band": ("logical_bytes", "stored_bytes", "response_seconds", "responses"),
    "selection": (),
}


class AuditDiffError(ValueError):
    """Raised for unreadable or incomparable dumps (exit code 64)."""


@dataclass
class AuditDump:
    """The aggregate view of one audit JSONL file (events are ignored)."""

    path: str
    meta: Dict[str, object]
    #: band -> aggregate totals row (the ``band`` JSONL lines)
    bands: Dict[int, Dict[str, float]]
    #: (band, selected codec) -> decision count
    selections: Dict[Tuple[int, str], int] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str) -> "AuditDump":
        meta: Optional[Dict[str, object]] = None
        bands: Dict[int, Dict[str, float]] = {}
        selections: Dict[Tuple[int, str], int] = {}
        try:
            fp = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise AuditDiffError(f"cannot open {path!r}: {exc}") from exc
        with fp:
            for lineno, raw in enumerate(fp, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise AuditDiffError(
                        f"{path}:{lineno}: not JSON: {exc}"
                    ) from exc
                try:
                    kind = obj.get("kind")
                    if kind == "meta":
                        meta = obj
                    elif kind in _KEPT:
                        band = obj.get("band")
                        band = _NO_BAND if band is None else int(band)
                        n = int(obj["n"])
                        for name in _KEPT[kind]:
                            float(obj[name])
                        if kind == "band":
                            bands[band] = obj
                        else:
                            key = (band, str(obj["codec"]))
                            selections[key] = selections.get(key, 0) + n
                    # "shadow" and "event" lines are not needed for diffing
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise AuditDiffError(
                        f"{path}:{lineno}: malformed line: {exc!r}"
                    ) from exc
        if meta is None:
            raise AuditDiffError(f"{path}: no 'meta' line — not an audit dump")
        version = meta.get("version")
        if version != AUDIT_SCHEMA_VERSION:
            raise AuditDiffError(
                f"{path}: audit schema version {version!r}; this tool "
                f"speaks {AUDIT_SCHEMA_VERSION}"
            )
        return cls(path=path, meta=meta, bands=bands, selections=selections)

    # ------------------------------------------------------------------
    @property
    def n_decisions(self) -> int:
        return int(self.meta.get("n_decisions", 0))

    def band_label(self, band: int) -> str:
        row = self.bands.get(band)
        if row is not None and row.get("label"):
            return str(row["label"])
        return "all" if band == _NO_BAND else f"band{band}"

    def selection_distribution(
        self, band: Optional[int] = None
    ) -> Dict[str, float]:
        """Codec-selection shares, overall or for one band."""
        counts: Dict[str, int] = {}
        for (b, codec), n in self.selections.items():
            if band is not None and b != band:
                continue
            counts[codec] = counts.get(codec, 0) + n
        total = sum(counts.values())
        if total == 0:
            return {}
        return {codec: n / total for codec, n in counts.items()}

    def mean_response(self, band: int) -> Optional[float]:
        row = self.bands.get(band)
        if row is None or not row.get("responses"):
            return None
        return float(row["response_seconds"]) / float(row["responses"])

    def stored_ratio(self, band: int) -> Optional[float]:
        row = self.bands.get(band)
        if row is None or not row.get("stored_bytes"):
            return None
        return float(row["logical_bytes"]) / float(row["stored_bytes"])


def _tvd(p: Dict[str, float], q: Dict[str, float]) -> float:
    """Total-variation distance between two discrete distributions."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _rel_delta(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None or b is None:
        return None
    if a == 0.0:
        return 0.0 if b == 0.0 else float("inf")
    return (b - a) / abs(a)


@dataclass
class DiffRow:
    """One band's comparison."""

    band: int
    label: str
    n_a: int
    n_b: int
    shift: float
    latency_a: Optional[float]
    latency_b: Optional[float]
    latency_delta: Optional[float]
    ratio_a: Optional[float]
    ratio_b: Optional[float]
    ratio_delta: Optional[float]


@dataclass
class DiffResult:
    overall_shift: float
    rows: List[DiffRow]
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def diff_dumps(
    a: AuditDump,
    b: AuditDump,
    max_shift: float = DEFAULT_MAX_SHIFT,
    max_latency_delta: float = DEFAULT_MAX_LATENCY_DELTA,
    max_ratio_delta: float = DEFAULT_MAX_RATIO_DELTA,
) -> DiffResult:
    """Compare two dumps; the returned result carries rows + violations."""
    if a.meta.get("policy") != b.meta.get("policy"):
        raise AuditDiffError(
            f"incomparable dumps: policy {a.meta.get('policy')!r} vs "
            f"{b.meta.get('policy')!r}"
        )
    violations: List[str] = []
    overall = _tvd(a.selection_distribution(), b.selection_distribution())
    if overall > max_shift:
        violations.append(
            f"overall decision-distribution shift {overall:.3f} > "
            f"max-shift {max_shift:.3f}"
        )
    rows: List[DiffRow] = []
    for band in sorted(set(a.bands) | set(b.bands)):
        label = a.band_label(band) if band in a.bands else b.band_label(band)
        row_a = a.bands.get(band)
        row_b = b.bands.get(band)
        if row_a is None or row_b is None:
            side = a.path if row_a is None else b.path
            violations.append(
                f"band {label}: populated in only one dump (missing in {side})"
            )
        shift = _tvd(
            a.selection_distribution(band), b.selection_distribution(band)
        )
        if row_a is not None and row_b is not None and shift > max_shift:
            violations.append(
                f"band {label}: decision-distribution shift {shift:.3f} > "
                f"max-shift {max_shift:.3f}"
            )
        lat_a, lat_b = a.mean_response(band), b.mean_response(band)
        dlat = _rel_delta(lat_a, lat_b)
        if dlat is not None and abs(dlat) > max_latency_delta:
            violations.append(
                f"band {label}: mean response {lat_b:.6g}s vs {lat_a:.6g}s "
                f"(delta {dlat:+.1%} > max-latency-delta "
                f"{max_latency_delta:.1%})"
            )
        ratio_a, ratio_b = a.stored_ratio(band), b.stored_ratio(band)
        dratio = _rel_delta(ratio_a, ratio_b)
        if dratio is not None and abs(dratio) > max_ratio_delta:
            violations.append(
                f"band {label}: stored ratio {ratio_b:.4f} vs {ratio_a:.4f} "
                f"(delta {dratio:+.1%} > max-ratio-delta "
                f"{max_ratio_delta:.1%})"
            )
        rows.append(DiffRow(
            band=band, label=label,
            n_a=int(row_a["n"]) if row_a else 0,
            n_b=int(row_b["n"]) if row_b else 0,
            shift=shift,
            latency_a=lat_a, latency_b=lat_b, latency_delta=dlat,
            ratio_a=ratio_a, ratio_b=ratio_b, ratio_delta=dratio,
        ))
    return DiffResult(overall_shift=overall, rows=rows, violations=violations)


def render_diff(a: AuditDump, b: AuditDump, result: DiffResult) -> str:
    """Human-readable comparison table + verdict."""
    def _opt(v: Optional[float], fmt: str) -> str:
        return fmt.format(v) if v is not None else "-"

    rows = []
    for r in result.rows:
        rows.append([
            r.label, r.n_a, r.n_b, f"{r.shift:.3f}",
            _opt(None if r.latency_a is None else r.latency_a * 1e3, "{:.3f}"),
            _opt(None if r.latency_b is None else r.latency_b * 1e3, "{:.3f}"),
            _opt(r.latency_delta, "{:+.1%}"),
            _opt(r.ratio_a, "{:.3f}"),
            _opt(r.ratio_b, "{:.3f}"),
            _opt(r.ratio_delta, "{:+.1%}"),
        ])
    lines = [
        f"audit diff: A = {a.path} ({a.n_decisions} decisions), "
        f"B = {b.path} ({b.n_decisions} decisions)",
        f"overall decision-distribution shift (TVD): "
        f"{result.overall_shift:.3f}",
        "",
        render_table(
            ["band", "n(A)", "n(B)", "shift", "lat(A) ms", "lat(B) ms",
             "dlat", "ratio(A)", "ratio(B)", "dratio"],
            rows,
            title="per-band decision/latency/ratio comparison",
        ),
    ]
    if result.violations:
        lines.append("")
        lines.append(f"POLICY SHIFT: {len(result.violations)} violation(s):")
        for v in result.violations:
            lines.append(f"  {v}")
    else:
        lines.append("")
        lines.append("no significant policy shift")
    return "\n".join(lines)
