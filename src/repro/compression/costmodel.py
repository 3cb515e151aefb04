"""Calibrated codec throughput model.

The evaluation's queueing behaviour depends on how long compression and
decompression *take*, not just on how small the output is.  Our LZF/LZ4
codecs are pure Python — ratio-faithful but orders of magnitude slower
than the C implementations the paper ran — so simulated time charged for
(de)compression comes from this model rather than from wall-clock.

Default speeds are single-threaded figures for the C implementations on
a ~3 GHz Xeon of the paper's era (Intel X5680), consistent with the
ordering and rough magnitudes in the paper's Fig 2:

=======  ============  ==============  ========
codec    compress MB/s  decompress MB/s  setup µs
=======  ============  ==============  ========
none     (free)        (free)           0
lzf      80            300              25
lz4      300           1200             20
gzip     15            150              25
bzip2    9             26               30
lzma     4             60               30
zlib-1   90            250              20
=======  ============  ==============  ========

Per-call costs include a fixed setup overhead — context allocation,
buffer management and mapping updates in the block-layer compression
stack — which matters at 4 KB granularity; larger merged blocks
amortise it, one of the reasons the Sequentiality Detector helps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["CodecSpeed", "CodecCostModel", "DEFAULT_SPEEDS"]

_MB = 1024 * 1024


@dataclass(frozen=True)
class CodecSpeed:
    """Throughput of one codec, in MB/s, plus fixed per-call overhead."""

    compress_mb_s: float
    decompress_mb_s: float
    setup_us: float = 2.0

    def __post_init__(self) -> None:
        if self.compress_mb_s <= 0 or self.decompress_mb_s <= 0:
            raise ValueError("throughputs must be positive")
        if self.setup_us < 0:
            raise ValueError("setup overhead must be non-negative")


DEFAULT_SPEEDS: Dict[str, CodecSpeed] = {
    "none": CodecSpeed(float("inf"), float("inf"), setup_us=0.0),
    "lzf": CodecSpeed(80.0, 300.0, setup_us=25.0),
    "lz4": CodecSpeed(300.0, 1200.0, setup_us=20.0),
    "gzip": CodecSpeed(15.0, 150.0, setup_us=25.0),
    "bzip2": CodecSpeed(9.0, 26.0, setup_us=30.0),
    "lzma": CodecSpeed(4.0, 60.0, setup_us=30.0),
    "zlib-1": CodecSpeed(90.0, 250.0, setup_us=20.0),
}


class CodecCostModel:
    """Maps (codec, byte count) to simulated CPU seconds at
    :data:`DEFAULT_SPEEDS`."""

    def speed(self, codec_name: str) -> CodecSpeed:
        try:
            return DEFAULT_SPEEDS[codec_name]
        except KeyError:
            raise KeyError(
                f"no speed calibration for codec {codec_name!r}; "
                f"known: {sorted(DEFAULT_SPEEDS)}"
            ) from None

    # ------------------------------------------------------------------
    def compress_time(self, codec_name: str, nbytes: int) -> float:
        """Simulated seconds to compress ``nbytes`` with ``codec_name``."""
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes!r}")
        s = self.speed(codec_name)
        if s.compress_mb_s == float("inf"):
            return 0.0
        return s.setup_us * 1e-6 + nbytes / (s.compress_mb_s * _MB)

    def decompress_time(self, codec_name: str, nbytes: int) -> float:
        """Simulated seconds to decompress a block whose *original* size is ``nbytes``.

        Decompression throughput is conventionally quoted against the
        uncompressed output size, which is how Fig 2's D_Speed is defined.
        """
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes!r}")
        s = self.speed(codec_name)
        if s.decompress_mb_s == float("inf"):
            return 0.0
        return s.setup_us * 1e-6 + nbytes / (s.decompress_mb_s * _MB)
