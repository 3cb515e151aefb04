"""Plain-text rendering of experiment results (tables and series).

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers keep the formatting consistent and readable in
pytest/benchmark output and in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.tables import render_table

__all__ = [
    "render_table",
    "render_series",
    "render_telemetry",
    "render_audit",
]


def render_series(
    x_label: str,
    xs: Sequence[object],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    fmt: str = "{:.3f}",
) -> str:
    """Multiple named series against a shared x axis, one row per x."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [fmt.format(series[name][i]) for name in series])
    return render_table(headers, rows, title)


def render_telemetry(telemetry, flame: bool = True) -> str:
    """Per-layer breakdown + metrics + flamegraph for one replay.

    Thin delegation to :func:`repro.telemetry.render_telemetry_summary`
    so harness code only needs this module for all result rendering.
    """
    from repro.telemetry.exporters import render_telemetry_summary

    return render_telemetry_summary(telemetry, flame=flame)


def render_audit(auditor) -> str:
    """Decision-audit summary: per-band regret table + shadow verdicts.

    One row per intensity band: decision count, selected-codec mix,
    the live policy's stored megabytes and codec CPU, and — per shadow
    policy — the counterfactual stored megabytes, CPU and the fraction
    of decisions where the shadow would have chosen differently.  The
    closing lines give the run-level ``EDC vs best-static`` regret.
    """
    _MB = 1024 * 1024
    shadows = auditor.shadow_names
    live = auditor.totals()
    lines = [
        f"decision audit: {auditor.n_decisions} decisions, "
        f"policy {auditor.policy_name()}"
        + (f", shadows: {', '.join(shadows)}" if shadows else ", no shadows")
    ]
    if auditor.n_decisions == 0:
        lines.append("(no write decisions recorded)")
        return "\n".join(lines)

    headers = ["band", "n", "codec mix", "stored MB", "cpu s"]
    for name in shadows:
        headers += [f"{name} MB", f"{name} cpu s", f"{name} div"]
    rows = []
    for band in auditor.bands():
        bt = auditor.band_totals[band]
        mix = {}
        for (b, codec), n in auditor.selections.items():
            if b == band:
                mix[codec] = mix.get(codec, 0) + n
        mix_str = " ".join(
            f"{codec} {n / bt.n:.0%}"
            for codec, n in sorted(mix.items(), key=lambda kv: -kv[1])
        )
        row = [
            auditor.band_label(band), bt.n, mix_str,
            f"{bt.stored_bytes / _MB:.2f}", f"{bt.cpu_seconds:.3f}",
        ]
        for name in shadows:
            st = auditor.shadow_totals.get((name, band))
            if st is None or st.n == 0:
                row += ["-", "-", "-"]
            else:
                row += [
                    f"{st.stored_bytes / _MB:.2f}",
                    f"{st.cpu_seconds:.3f}",
                    f"{st.divergences / st.n:.0%}",
                ]
        rows.append(row)
    total_row = ["total", live.n, "", f"{live.stored_bytes / _MB:.2f}",
                 f"{live.cpu_seconds:.3f}"]
    grand = auditor.shadow_grand_totals()
    for name in shadows:
        st = grand.get(name)
        if st is None or st.n == 0:
            total_row += ["-", "-", "-"]
        else:
            total_row += [
                f"{st.stored_bytes / _MB:.2f}",
                f"{st.cpu_seconds:.3f}",
                f"{st.divergences / st.n:.0%}",
            ]
    rows.append(total_row)
    lines.append("")
    lines.append(render_table(
        headers, rows, title="per-band regret (live vs shadow policies)"
    ))
    summary = auditor.regret_summary()
    if summary is not None:
        space_mb = summary["space_regret_bytes"] / _MB
        lines.append("")
        lines.append(
            f"EDC vs best-static: space regret {space_mb:+.2f} MB vs "
            f"{summary['best_space_shadow']}, cpu regret "
            f"{summary['cpu_regret_seconds']:+.3f} s vs "
            f"{summary['best_cpu_shadow']} "
            f"(negative = the elastic decision beat every static policy)"
        )
    if live.responses:
        lines.append(
            f"mean response over audited writes: "
            f"{live.response_seconds / live.responses * 1e3:.3f} ms; "
            f"gated {live.gated}, failed-75% {live.failed_75pct}, "
            f"merged requests {live.merged_requests}"
        )
    return "\n".join(lines)

