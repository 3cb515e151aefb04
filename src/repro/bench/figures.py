"""One definition per paper exhibit.

Each ``fig*`` / ``table*`` function regenerates the data behind one
exhibit of the paper's evaluation as plain data structures.
:data:`EXHIBITS` binds every exhibit name to ``(compute(duration),
render(data) -> str)``: the parameters it runs at and the text it
prints.  Its three readers are ``python -m repro.bench exhibit NAME``
(prints the render), the ``benchmarks/`` suite (asserts the paper's shape on
the same data) and the ``<!-- exhibit: NAME -->`` blocks of
EXPERIMENTS.md (``benchmarks/test_ledger.py`` holds each to the
render).  Exhibits sharing a compute function share its data: Figs 8,
9 and 10 are three views of one single-SSD matrix.  See DESIGN.md §4
for the experiment index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.ascii import grouped_bar_chart, line_sketch
from repro.bench.experiments import ExperimentResult, ReplayConfig, replay, replay_all_schemes
from repro.bench.report import render_series, render_table
from repro.bench.schemes import SCHEMES
from repro.compression.codec import default_registry
from repro.core.policy import DEFAULT_BANDS, IntensityBand
from repro.flash.geometry import X25E_TIMING, x25e_like
from repro.flash.ssd import SimulatedSSD
from repro.sdgen.datasets import FIREFOX_MIX, LINUX_SOURCE_MIX, build_corpus
from repro.sim.engine import Simulator
from repro.traces.workloads import make_workload

__all__ = [
    "fig1_request_size_latency",
    "fig2_codec_efficiency",
    "fig3_burstiness",
    "table1_setup",
    "table2_workloads",
    "fig8_to_11_matrix",
    "fig12_threshold_sensitivity",
    "DEFAULT_TRACES",
    "DURATION",
    "EXHIBITS",
    "idle_share",
]

DEFAULT_TRACES = ("Fin1", "Fin2", "Usr_0", "Prxy_0")

#: virtual seconds per replayed trace: the command line's default and
#: the exhibit suite's horizon, so both print the same blocks
DURATION = 100.0


# ----------------------------------------------------------------------
# Fig 1 — response time vs request size on one SSD
# ----------------------------------------------------------------------
def fig1_request_size_latency(
    sizes_kb: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
) -> Dict[str, List[float]]:
    """Per-size read/write service times (ms), normalised column included.

    The paper's Fig 1 plots IOmeter-measured response time against
    request size on an Intel X25-E and finds an approximately linear
    relationship; this drives the same measurement against the
    simulated device.
    """
    sim = Simulator()
    ssd = SimulatedSSD(sim, geometry=x25e_like(256), timing=X25E_TIMING)
    reads, writes = [], []
    for kb in sizes_kb:
        nbytes = kb * 1024
        reads.append(ssd.service_read_time(nbytes) * 1e3)
        writes.append(ssd.service_write_time(nbytes) * 1e3)
    base_r, base_w = reads[0], writes[0]
    return {
        "size_kb": [float(s) for s in sizes_kb],
        "read_ms": reads,
        "write_ms": writes,
        "read_norm": [r / base_r for r in reads],
        "write_norm": [w / base_w for w in writes],
    }


# ----------------------------------------------------------------------
# Fig 2 — codec compression ratio and speeds on two corpora
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CodecEfficiency:
    dataset: str
    codec: str
    ratio: float
    compress_mb_s: float
    decompress_mb_s: float


def fig2_codec_efficiency(
    codecs: Sequence[str] = ("lzf", "lz4", "gzip", "bzip2"),
    n_chunks: int = 96,
    chunk_size: int = 65536,
) -> List[CodecEfficiency]:
    """Ratio (measured on real bytes) and speed (calibrated model) per codec.

    The paper's Fig 2 measures the Linux-source and Firefox corpora;
    ratios here come from actually compressing synthetic stand-ins for
    those corpora, and speeds from the calibrated cost model (see
    DESIGN.md's substitution table).
    """
    from repro.compression.costmodel import CodecCostModel

    registry = default_registry()
    cost = CodecCostModel()
    out: List[CodecEfficiency] = []
    for mix in (LINUX_SOURCE_MIX, FIREFOX_MIX):
        chunks = build_corpus(mix, n_chunks=n_chunks, chunk_size=chunk_size)
        total = sum(len(c) for c in chunks)
        for name in codecs:
            codec = registry.get(name)
            compressed = sum(len(codec.compress(c)) for c in chunks)
            speed = cost.speed(name)
            out.append(
                CodecEfficiency(
                    dataset=mix.name,
                    codec=name,
                    ratio=total / compressed,
                    compress_mb_s=speed.compress_mb_s,
                    decompress_mb_s=speed.decompress_mb_s,
                )
            )
    return out


# ----------------------------------------------------------------------
# Fig 3 — burst/idle access patterns
# ----------------------------------------------------------------------
def fig3_burstiness(
    workloads: Sequence[str] = ("Fin1", "Usr_0"),
    duration: float = 300.0,
    bin_width: float = 1.0,
    seed: int = 42,
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """(times, calculated-IOPS) series per workload (the Fig 3 plots)."""
    out = {}
    for name in workloads:
        trace = make_workload(name, duration=duration, max_requests=None, seed=seed)
        out[name] = trace.intensity_series(bin_width=bin_width)
    return out


def idle_share(rates: np.ndarray) -> float:
    """Share of bins below 5 % of the peak: Fig 3's notion of idle."""
    return float((rates < 0.05 * max(rates.max(), 1.0)).mean())


# ----------------------------------------------------------------------
# Table I / Table II
# ----------------------------------------------------------------------
def table1_setup() -> List[Tuple[str, str]]:
    """The experimental-setup table (ours mirrors the paper's Table I)."""
    geo = x25e_like(128)
    t = X25E_TIMING
    return [
        ("Machine", "simulated host, single-threaded compression engine"),
        ("Device model", f"X25-E-like simulated SSD ({geo.raw_bytes // (1024*1024)} MB raw, "
                         f"{geo.op_ratio:.1%} over-provisioned)"),
        ("Write path", f"{t.write_overhead_us:.0f} us + size / {t.write_mb_s:.0f} MB/s"),
        ("Read path", f"{t.read_overhead_us:.0f} us + size / {t.read_mb_s:.0f} MB/s"),
        ("GC", "greedy, erase 1.5 ms, page move 275 us"),
        ("Traces", "synthetic Fin1/Fin2 (SPC-like), Usr_0/Prxy_0 (MSR-like)"),
        ("Trace content", "repro.sdgen characterisation-based generator"),
        ("Compression algorithms", "Lzf, Gzip (zlib-6), Bzip2 [+ LZ4, LZMA]"),
    ]


def table2_workloads(
    n_requests: int = 20_000, seed: int = 42
) -> List[Dict[str, object]]:
    """Workload-characteristic rows (the paper's Table II)."""
    rows = []
    for name in DEFAULT_TRACES:
        trace = make_workload(name, max_requests=n_requests, seed=seed)
        s = trace.stats()
        rows.append(
            {
                "trace": name,
                "requests": s.n_requests,
                "write_ratio": s.write_ratio,
                "raw_iops": s.raw_iops,
                "avg_req_kb": s.avg_request_bytes / 1024,
                "seq_fraction": s.sequential_fraction,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figs 8-11 — the main comparison matrix
# ----------------------------------------------------------------------
@dataclass
class MatrixResult:
    """Results of the scheme x trace sweep on one backend."""

    backend: str
    results: Dict[str, Dict[str, ExperimentResult]] = field(default_factory=dict)

    def normalized(self, metric: str, baseline: str = "Native") -> Dict[str, Dict[str, float]]:
        """metric[trace][scheme] / metric[trace][baseline]."""
        out: Dict[str, Dict[str, float]] = {}
        for trace, by_scheme in self.results.items():
            base = getattr(by_scheme[baseline], metric)
            out[trace] = {
                s: (getattr(r, metric) / base if base else float("nan"))
                for s, r in by_scheme.items()
            }
        return out

    def mean_over_traces(self, metric: str) -> Dict[str, float]:
        schemes = next(iter(self.results.values())).keys()
        return {
            s: float(np.mean([getattr(self.results[t][s], metric) for t in self.results]))
            for s in schemes
        }


def fig8_to_11_matrix(
    backend: str = "ssd",
    traces: Sequence[str] = DEFAULT_TRACES,
    duration: float = 150.0,
    seed: int = 42,
    schemes: Sequence[str] = SCHEMES,
    cfg: Optional[ReplayConfig] = None,
) -> MatrixResult:
    """The scheme x trace replay matrix behind Figs 8, 9, 10 (ssd) and 11 (rais5).

    - Fig 8: ``normalized("compression_ratio")``
    - Fig 9: ``normalized("composite")`` — the ratio/response-time metric
    - Fig 10/11: ``normalized("mean_response")`` on ssd / rais5
    """
    if cfg is None:
        cfg = ReplayConfig(backend=backend)
    out = MatrixResult(backend=backend)
    for name in traces:
        trace = make_workload(name, duration=duration, max_requests=None, seed=seed)
        out.results[name] = replay_all_schemes(trace, cfg, schemes=schemes)
    return out


# ----------------------------------------------------------------------
# Fig 12 — sensitivity to the gzip/lzf intensity threshold
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SensitivityPoint:
    threshold_iops: float
    gzip_share: float
    compression_ratio: float
    mean_response: float


def fig12_threshold_sensitivity(
    trace_name: str = "Fin2",
    thresholds: Sequence[float] = (0.0, 100.0, 250.0, 600.0, 1200.0, 2000.0, 3000.0),
    duration: float = 150.0,
    seed: int = 42,
    cfg: Optional[ReplayConfig] = None,
) -> List[SensitivityPoint]:
    """Sweep the gzip/lzf boundary (EDC's key tunable, paper Fig 12).

    Raising the boundary sends a larger share of writes to Gzip: the
    compression ratio rises, and so does the response time — with the
    knee the paper reports around a ~20 % gzip share.  The skip band is
    held fixed, matching the paper's "set the non-compression percentage
    unchanged".
    """
    if cfg is None:
        cfg = ReplayConfig()
    skip_bound = DEFAULT_BANDS[-2].upper_iops
    trace = make_workload(trace_name, duration=duration, max_requests=None, seed=seed)
    points: List[SensitivityPoint] = []
    for thr in thresholds:
        if not 0 <= thr <= skip_bound:
            raise ValueError(f"threshold {thr} outside [0, {skip_bound}]")
        if thr == 0:
            bands = (
                IntensityBand(skip_bound, "lzf"),
                IntensityBand(float("inf"), None),
            )
        elif thr == skip_bound:
            bands = (
                IntensityBand(skip_bound, "gzip"),
                IntensityBand(float("inf"), None),
            )
        else:
            bands = (
                IntensityBand(thr, "gzip"),
                IntensityBand(skip_bound, "lzf"),
                IntensityBand(float("inf"), None),
            )
        result = replay(trace, "EDC", cfg, bands=bands)
        points.append(
            SensitivityPoint(
                threshold_iops=thr,
                gzip_share=result.codec_shares.get("gzip", 0.0),
                compression_ratio=result.compression_ratio,
                mean_response=result.mean_response,
            )
        )
    return points


# ----------------------------------------------------------------------
# The exhibit table
# ----------------------------------------------------------------------
def _render_fig1(d) -> str:
    return render_series(
        "size_kb", d["size_kb"],
        {"read_ms": d["read_ms"], "write_ms": d["write_ms"]},
        title="Fig 1: response time vs request size")


def _render_fig2(rows: List[CodecEfficiency]) -> str:
    return render_table(
        ["dataset", "codec", "C_Ratio", "C_Speed", "D_Speed"],
        [[r.dataset, r.codec, r.ratio, r.compress_mb_s, r.decompress_mb_s]
         for r in rows],
        title="Fig 2: codec efficiency")


def _render_fig3(series) -> str:
    return "\n".join(
        f"Fig 3 [{name}]: mean {rates.mean():.0f}, "
        f"peak {rates.max():.0f} calc-IOPS, idle bins {idle_share(rates):.0%}"
        for name, (_, rates) in series.items())


def _render_table1(rows) -> str:
    return render_table(["item", "value"], rows,
                        title="Table I: experimental setup")


def _render_table2(rows) -> str:
    return render_table(
        ["trace", "requests", "write_ratio", "raw_iops", "avg_req_kb"],
        [[r["trace"], r["requests"], r["write_ratio"], r["raw_iops"],
          r["avg_req_kb"]] for r in rows],
        title="Table II: workload characteristics")


def _matrix_view(metric: str, title: str) -> Callable[[MatrixResult], str]:
    """One column of the replay matrix, normalised to Native: table + bars."""
    def render(matrix: MatrixResult) -> str:
        norm = matrix.normalized(metric)
        traces = list(norm)
        table = render_series(
            "trace", traces,
            {s: [norm[t][s] for t in traces] for s in SCHEMES},
            title=title)
        bars = grouped_bar_chart(
            {t: {s: norm[t][s] for s in SCHEMES} for t in traces},
            width=32)
        return f"{table}\n\n{bars}\n"  # a blank line more after the bars
    return render


def _render_fig12(sweeps: Dict[str, List[SensitivityPoint]]) -> str:
    return "\n\n".join(
        render_table(
            ["threshold", "gzip share", "ratio", "resp ms"],
            [[p.threshold_iops, p.gzip_share, p.compression_ratio,
              p.mean_response * 1e3] for p in pts],
            title=f"Fig 12: sensitivity to the Gzip threshold ({trace})")
        + "\n\n"
        + line_sketch(
            [p.gzip_share for p in pts], [p.mean_response * 1e3 for p in pts],
            title="Fig 12 sketch: response time vs gzip share",
            x_label="gzip share", y_label="resp ms")
        for trace, pts in sweeps.items())


def _ssd_matrix(duration: float) -> MatrixResult:
    return fig8_to_11_matrix(backend="ssd", duration=duration)


def _rais5_matrix(duration: float) -> MatrixResult:
    return fig8_to_11_matrix(backend="rais5", duration=duration)


def _fig12_sweeps(duration: float) -> Dict[str, List[SensitivityPoint]]:
    """The paper's Fin2 sweep, then write-heavy Fin1, where the knee shows."""
    return {name: fig12_threshold_sensitivity(name, duration=duration)
            for name in ("Fin2", "Fin1")}


#: exhibit name -> (compute(duration), render(data) -> str), in the
#: paper's order; callers cache data per compute function
EXHIBITS: Dict[str, Tuple[Callable[[float], object], Callable[..., str]]] = {
    "fig1": (lambda duration: fig1_request_size_latency(), _render_fig1),
    "fig2": (lambda duration: fig2_codec_efficiency(), _render_fig2),
    "fig3": (lambda duration: fig3_burstiness(), _render_fig3),
    "table1": (lambda duration: table1_setup(), _render_table1),
    "table2": (lambda duration: table2_workloads(), _render_table2),
    "fig8": (_ssd_matrix, _matrix_view(
        "compression_ratio", "Fig 8: compression ratio vs Native")),
    "fig9": (_ssd_matrix, _matrix_view(
        "composite", "Fig 9: ratio/response-time vs Native")),
    "fig10": (_ssd_matrix, _matrix_view(
        "mean_response", "Fig 10: response time vs Native (single SSD)")),
    "fig11": (_rais5_matrix, _matrix_view(
        "mean_response", "Fig 11: response time vs Native (RAIS5)")),
    "fig12": (_fig12_sweeps, _render_fig12),
}
