"""EDC — Elastic Data Compression (the paper's contribution).

The three functional modules of the paper's Fig 4 architecture, plus the
device that ties them together:

- :mod:`~repro.core.monitor` — the Workload Monitor: 4 KB-normalised
  *calculated IOPS* over a sliding window, intensity banding (§III-D).
- :mod:`~repro.core.engine` — the Compression & Decompression Engine:
  codec selection feedback (Fig 6), the compressibility gate, and the
  75 % rule (§III-E).
- :mod:`~repro.core.distributer` — the Request Distributer: issues the
  processed data to / fetches it from the flash backend.
- :mod:`~repro.core.sequential` — the Sequentiality Detector (Fig 7).
- :mod:`~repro.core.policy` — Native / fixed / elastic compression
  policies (the paper's comparison schemes).
- :mod:`~repro.core.device` — :class:`EDCBlockDevice`, the block-level
  layer below the file system that the paper prototypes.
"""

from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.hints import DEFAULT_HINT_RULES, HintRules, HintedPolicy
from repro.core.engine import CompressionEngine
from repro.core.monitor import WorkloadMonitor
from repro.core.replay import TraceReplayer
from repro.core.writeback import WriteBackBuffer
from repro.core.policy import (
    CompressionPolicy,
    ElasticPolicy,
    FixedPolicy,
    IntensityBand,
    NativePolicy,
)
from repro.core.sequential import SequentialityDetector
from repro.core.stats import CompressionStats

__all__ = [
    "EDCConfig",
    "EDCBlockDevice",
    "CompressionEngine",
    "WorkloadMonitor",
    "CompressionPolicy",
    "NativePolicy",
    "FixedPolicy",
    "ElasticPolicy",
    "IntensityBand",
    "SequentialityDetector",
    "CompressionStats",
    "HintedPolicy",
    "HintRules",
    "DEFAULT_HINT_RULES",
    "TraceReplayer",
    "WriteBackBuffer",
]
