"""Workload substrate: block I/O traces.

The paper replays four block traces — Fin1 and Fin2 (OLTP, Storage
Performance Council / UMass) and Usr_0 and Prxy_0 (MSR Cambridge
enterprise volumes).  Those traces are not redistributable, so this
package provides both:

- parsers for the real SPC and MSR CSV formats
  (:mod:`~repro.traces.spc`, :mod:`~repro.traces.msr`) — drop the real
  files in and they replay unchanged; and
- synthetic generators (:mod:`~repro.traces.synthetic`) parameterised to
  each trace's published characteristics (read/write ratio, raw IOPS,
  request size) with the ON/OFF burst-idle alternation of paper Fig 3,
  with canned parameter sets in :mod:`~repro.traces.workloads`.
"""

from repro.traces.model import IORequest, Trace, TraceStats
from repro.traces.msr import parse_msr, write_msr
from repro.traces.spc import parse_spc, write_spc
from repro.traces.analysis import (
    burstiness_summary,
    detect_bursts,
    interarrival_stats,
)
from repro.traces.synthetic import BurstModel, SyntheticTraceGenerator, WorkloadParams
from repro.traces.workloads import (
    WORKLOADS,
    fin1,
    fin2,
    make_workload,
    prxy0,
    usr0,
)

__all__ = [
    "IORequest",
    "Trace",
    "TraceStats",
    "parse_spc",
    "write_spc",
    "parse_msr",
    "write_msr",
    "BurstModel",
    "WorkloadParams",
    "SyntheticTraceGenerator",
    "WORKLOADS",
    "make_workload",
    "fin1",
    "fin2",
    "usr0",
    "prxy0",
    "burstiness_summary",
    "detect_bursts",
    "interarrival_stats",
]
