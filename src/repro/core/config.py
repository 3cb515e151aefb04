"""Configuration for the EDC block device and its comparison schemes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["EDCConfig"]


@dataclass(frozen=True)
class EDCConfig:
    """Tunables of the EDC stack (defaults follow the paper where stated).

    Attributes
    ----------
    block_size:
        Logical block size; the paper uses the Linux 4 KB page.
    monitor_window:
        Sliding window (seconds) over which calculated IOPS is measured.
    size_class_fractions:
        The allocator's slot classes (§III-C: 25/50/75/100 %).
    sd_enabled:
        Whether the Sequentiality Detector merges contiguous writes.
    compressibility_gate:
        Whether non-compressible data is written through uncompressed
        (one of EDC's two headline mechanisms).
    verify_reads:
        Keep every compressed payload, then decompress it on every read
        and compare with the expected content (integrity checking; used
        by tests, off in benchmarks).
    """

    block_size: int = 4096
    monitor_window: float = 0.05
    size_class_fractions: Tuple[float, ...] = (0.25, 0.50, 0.75, 1.0)
    sd_enabled: bool = True
    compressibility_gate: bool = True
    #: pass the content class of each write unit to the policy as a
    #: semantic hint (paper §VI future work; see repro.core.hints)
    semantic_hints: bool = False
    #: direct frequently-overwritten (hot) blocks to FTL stream 1 and
    #: cold data to stream 0 (requires a backend built with n_streams=2)
    hot_cold_streams: bool = False
    #: a block counts as hot once overwritten this many times
    hot_version_threshold: int = 3
    verify_reads: bool = False
    #: compute a CRC32 per logical block at write time, store it in the
    #: mapping entry, and verify it on every read (end-to-end integrity;
    #: also what the post-recovery scrub checks after a power cut)
    crc_checks: bool = False

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive: {self.block_size!r}")
        if self.monitor_window <= 0:
            raise ValueError(f"monitor_window must be positive: {self.monitor_window!r}")
