"""Flash storage substrate.

Models the storage stack the paper evaluates on:

- :mod:`~repro.flash.geometry` — NAND geometry and timing presets
  (Intel X25-E-like, the paper's device).
- :mod:`~repro.flash.ftl` — byte-granular log-structured FTL with
  out-of-place updates (§III-C notes the FTL updates out of place).
- :mod:`~repro.flash.gc` — greedy garbage collection and write-
  amplification accounting.
- :mod:`~repro.flash.ssd` — the simulated SSD: request queue and a
  service-time model linear in request size (paper Fig 1).
- :mod:`~repro.flash.raid` — the RAIS5 parity array of simulated SSDs
  (paper Fig 11 uses five).
- :mod:`~repro.flash.allocator` — EDC's 25/50/75/100 % size-class slot
  allocator (§III-C).
- :mod:`~repro.flash.mapping` — the (LBA, Size, Tag) compressed-block
  mapping table (paper Fig 5).
"""

from repro.flash.allocator import SizeClassAllocator, SlotClass
from repro.flash.hdd import HddTiming, SimulatedHDD
from repro.flash.ftl import ExtentFTL, FlashCost
from repro.flash.gc import GreedyCollector
from repro.flash.geometry import (
    NandGeometry,
    NandTiming,
    X25E_GEOMETRY,
    X25E_TIMING,
    x25e_like,
)
from repro.flash.mapping import MappingEntry, MappingTable
from repro.flash.raid import RAIS5
from repro.flash.ssd import SimulatedSSD, StorageBackend

__all__ = [
    "NandGeometry",
    "NandTiming",
    "X25E_GEOMETRY",
    "X25E_TIMING",
    "x25e_like",
    "ExtentFTL",
    "FlashCost",
    "GreedyCollector",
    "SimulatedSSD",
    "StorageBackend",
    "RAIS5",
    "SizeClassAllocator",
    "SlotClass",
    "MappingEntry",
    "MappingTable",
    "SimulatedHDD",
    "HddTiming",
]
