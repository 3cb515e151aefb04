"""NAND geometry and timing parameters.

The paper's testbed device is the Intel X25-E 64 GB (SLC).  The presets
below reproduce its externally visible behaviour:

- response time approximately linear in request size (paper Fig 1) —
  captured by the ``read_mb_s``/``write_mb_s`` effective bandwidths plus
  a fixed controller overhead;
- erase-before-rewrite at 64-128 KB block granularity with millisecond
  erases (§II-A) — captured by the geometry and the erase/program/read
  page timings used for garbage-collection stalls.

Simulated capacities default to a scaled-down device (256 MB) so that
trace replays exercise garbage collection without requiring gigabytes of
simulated writes; ``x25e_like`` builds geometries of any capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "NandGeometry",
    "NandTiming",
    "X25E_GEOMETRY",
    "X25E_TIMING",
    "x25e_like",
]


@dataclass(frozen=True)
class NandGeometry:
    """Physical layout of the simulated flash device.

    Attributes
    ----------
    page_size:
        NAND page size in bytes (the program/read unit).
    pages_per_block:
        Pages per erase block; the paper cites 64-128 KB erase blocks,
        i.e. 16-32 pages of 4 KB.
    nblocks:
        Total number of erase blocks, *including* over-provisioned ones.
    op_ratio:
        Fraction of raw capacity reserved as over-provisioning (hidden
        from the logical address space, consumed by GC headroom).
    """

    page_size: int = 4096
    pages_per_block: int = 32
    nblocks: int = 2048
    op_ratio: float = 0.125

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.pages_per_block <= 0 or self.nblocks <= 0:
            raise ValueError("geometry dimensions must be positive")
        if not 0 <= self.op_ratio < 1:
            raise ValueError(f"op_ratio must be in [0, 1): {self.op_ratio!r}")

    @cached_property
    def block_bytes(self) -> int:
        """Erase-block size in bytes."""
        return self.page_size * self.pages_per_block

    @cached_property
    def raw_bytes(self) -> int:
        """Total physical capacity in bytes."""
        return self.block_bytes * self.nblocks

    @cached_property
    def logical_bytes(self) -> int:
        """Capacity exposed to the host (raw minus over-provisioning)."""
        return int(self.raw_bytes * (1.0 - self.op_ratio))


@dataclass(frozen=True)
class NandTiming:
    """Timing parameters of the simulated flash device.

    The effective bandwidths drive the linear request-size/response-time
    relationship of Fig 1; the page/block timings price garbage
    collection work.
    """

    #: Streaming read bandwidth seen by the host (MB/s).  With the read
    #: overhead below, a 4 KB read ≈ 87 µs, matching the X25-E's random
    #: read latency at low queue depth.
    read_mb_s: float = 150.0
    #: Streaming write bandwidth seen by the host (MB/s).  With the write
    #: overhead below, a 4 KB write ≈ 120 µs (X25-E with its write cache
    #: enabled, the vendor-default configuration) and a 16 KB write
    #: ≈ 220 µs: response time grows linearly with request size (Fig 1),
    #: and the per-op overhead makes one merged large write cheaper than
    #: several small ones (the effect the Sequentiality Detector exploits).
    write_mb_s: float = 120.0
    #: Fixed per-request overhead on the read path (microseconds).
    read_overhead_us: float = 60.0
    #: Fixed per-request overhead on the write path (microseconds);
    #: random writes pay mapping/allocation work reads do not.
    write_overhead_us: float = 85.0
    #: NAND page read latency (microseconds).
    t_read_page_us: float = 25.0
    #: NAND page program latency (microseconds).
    t_program_page_us: float = 250.0
    #: NAND block erase latency (microseconds).
    t_erase_block_us: float = 1500.0

    def __post_init__(self) -> None:
        for field_name in (
            "read_mb_s",
            "write_mb_s",
            "t_read_page_us",
            "t_program_page_us",
            "t_erase_block_us",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.read_overhead_us < 0 or self.write_overhead_us < 0:
            raise ValueError("per-request overheads must be non-negative")

    @cached_property
    def read_bytes_per_s(self) -> float:
        return self.read_mb_s * 1024 * 1024

    @cached_property
    def write_bytes_per_s(self) -> float:
        return self.write_mb_s * 1024 * 1024

    @cached_property
    def read_overhead_s(self) -> float:
        return self.read_overhead_us * 1e-6

    @cached_property
    def write_overhead_s(self) -> float:
        return self.write_overhead_us * 1e-6


def x25e_like(capacity_mb: int = 256, op_ratio: float = 0.125) -> NandGeometry:
    """An X25-E-like geometry scaled to ``capacity_mb`` of raw capacity."""
    if capacity_mb <= 0:
        raise ValueError(f"capacity_mb must be positive: {capacity_mb!r}")
    geo = NandGeometry()
    nblocks = max(8, (capacity_mb * 1024 * 1024) // geo.block_bytes)
    return NandGeometry(
        page_size=geo.page_size,
        pages_per_block=geo.pages_per_block,
        nblocks=nblocks,
        op_ratio=op_ratio,
    )


#: Default scaled-down X25-E-like device (256 MB raw).
X25E_GEOMETRY = x25e_like(256)

#: X25-E-like timing (SLC, SATA-II era).
X25E_TIMING = NandTiming()
