"""Experiment harness: everything needed to regenerate the paper's
tables and figures.

- :mod:`~repro.bench.schemes` — builds the five comparison schemes
  (Native, Lzf, Gzip, Bzip2, EDC) as configured devices.
- :mod:`~repro.bench.experiments` — trace replay driver producing
  :class:`ExperimentResult` records.
- :mod:`~repro.bench.figures` — one driver per paper figure/table.
- :mod:`~repro.bench.report` — plain-text renderers for tables/series.
"""

from repro.bench.experiments import ExperimentResult, ReplayConfig, replay
from repro.bench.schemes import SCHEMES, build_device, build_policy
from repro.bench.report import render_series
from repro.tables import render_table

__all__ = [
    "ExperimentResult",
    "ReplayConfig",
    "replay",
    "SCHEMES",
    "build_policy",
    "build_device",
    "render_table",
    "render_series",
]
