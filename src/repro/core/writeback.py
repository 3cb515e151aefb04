"""Write-back DRAM buffer above the EDC device.

The paper observes (§II-C) that "with the help of the upper-layer
optimizing techniques such as DRAM buffer and I/O scheduling, the I/Os
seen at the lower level are usually bursty and clustered along the time
dimension."  This module implements that upper layer, so the full
published stack — buffer → EDC → flash — can be simulated end to end:

- writes are acknowledged when buffered (volatile-cache semantics, like
  a consumer drive's write cache — durability is traded for latency);
- dirty blocks flush in *address-sorted, coalesced* batches when the
  buffer passes its high watermark or the periodic flush timer fires —
  which is precisely what clusters and sequentialises the write stream
  the EDC layer sees;
- reads of dirty blocks are served from DRAM; anything else passes
  through to the device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.device import EDCBlockDevice
from repro.sim.engine import EventHandle, Simulator
from repro.sim.metrics import LatencyRecorder
from repro.traces.model import IORequest, READ, WRITE

__all__ = ["WriteBackBuffer", "BufferStats"]

#: DRAM access cost charged per buffered operation (seconds).
_DRAM_ACCESS_S = 5e-6
#: dirty share of the capacity at which a flush batch starts ...
HIGH_WATERMARK = 0.75
#: ... and the share of the capacity that batch flushes
FLUSH_FRACTION = 0.5


@dataclass
class BufferStats:
    buffered_writes: int = 0
    write_hits: int = 0
    read_hits: int = 0
    read_misses: int = 0
    flush_batches: int = 0
    flushed_blocks: int = 0
    watermark_flushes: int = 0
    timer_flushes: int = 0
    #: most blocks ever acked-but-unflushed at once — the worst-case
    #: volatile durability window a power cut could erase
    acked_unflushed_peak: int = 0


class WriteBackBuffer:
    """Volatile write-back cache in front of an :class:`EDCBlockDevice`."""

    def __init__(
        self,
        sim: Simulator,
        device: EDCBlockDevice,
        capacity_blocks: int = 1024,
        flush_interval: float = 1.0,
    ) -> None:
        if capacity_blocks < 1:
            raise ValueError(f"capacity_blocks must be >= 1: {capacity_blocks!r}")
        if flush_interval <= 0:
            raise ValueError(f"flush_interval must be positive: {flush_interval!r}")
        self.sim = sim
        self.device = device
        self.capacity_blocks = capacity_blocks
        self.flush_interval = flush_interval
        self.block = device.config.block_size
        #: dirty block number -> buffering time (for age-ordered flushing)
        self._dirty: Dict[int, float] = {}
        self._timer: Optional[EventHandle] = None
        self.stats = BufferStats()
        self.write_latency = LatencyRecorder("buffered-write")
        self.read_latency = LatencyRecorder("buffered-read")

    # ------------------------------------------------------------------
    def unflushed_blocks(self) -> Dict[int, float]:
        """Acked-but-unflushed block numbers with their buffering times.

        This is the buffer's **durability window**: every block here was
        acknowledged to the host but exists only in volatile DRAM, so a
        power cut at this instant loses it *by design* (write-back
        semantics), not through a recovery bug.  The chaos harness
        snapshots it at the cut to separate ``lost_volatile`` from
        ``lost_acked`` in the crash verdict.
        """
        return dict(self._dirty)

    def submit(self, request: IORequest) -> None:
        """Process one request arriving now (same contract as the device)."""
        if request.is_write:
            self._on_write(request)
        else:
            self._on_read(request)

    def _blocks_of(self, request: IORequest) -> range:
        return range(
            request.lba // self.block,
            (request.end + self.block - 1) // self.block,
        )

    # ------------------------------------------------------------------
    def _on_write(self, request: IORequest) -> None:
        now = self.sim.now
        for blk in self._blocks_of(request):
            if blk in self._dirty:
                self.stats.write_hits += 1
            self._dirty[blk] = now
        self.stats.buffered_writes += 1
        if len(self._dirty) > self.stats.acked_unflushed_peak:
            self.stats.acked_unflushed_peak = len(self._dirty)
        self.write_latency.add(_DRAM_ACCESS_S)
        self._arm_timer()
        if len(self._dirty) >= HIGH_WATERMARK * self.capacity_blocks:
            self.stats.watermark_flushes += 1
            self._flush_batch(int(self.capacity_blocks * FLUSH_FRACTION))

    def _on_read(self, request: IORequest) -> None:
        blocks = list(self._blocks_of(request))
        if all(blk in self._dirty for blk in blocks):
            self.stats.read_hits += 1
            self.read_latency.add(_DRAM_ACCESS_S)
            return
        self.stats.read_misses += 1
        # Partially dirty ranges read the device copy; the buffer overlay
        # would patch the dirty blocks in a real system (free in DRAM).
        self.device.submit(IORequest(self.sim.now, READ, request.lba, request.nbytes))

    # ------------------------------------------------------------------
    def _arm_timer(self) -> None:
        if self._timer is None and self._dirty:
            self._timer = self.sim.schedule(self.flush_interval, self._timer_fired)

    def _timer_fired(self) -> None:
        self._timer = None
        if self._dirty:
            self.stats.timer_flushes += 1
            self._flush_batch(len(self._dirty))
            self._arm_timer()

    def _flush_batch(self, max_blocks: int) -> None:
        """Flush up to ``max_blocks`` oldest dirty blocks, coalesced.

        The victims are chosen by age but *issued in address order with
        contiguous runs merged* — the clustering/sequentialising effect
        the paper attributes to the DRAM buffer.
        """
        if not self._dirty or max_blocks < 1:
            return
        victims = sorted(self._dirty, key=self._dirty.get)[:max_blocks]
        for blk in victims:
            del self._dirty[blk]
        victims.sort()
        runs: List[List[int]] = [[victims[0], 1]]
        for blk in victims[1:]:
            start, length = runs[-1]
            if blk == start + length:
                runs[-1][1] += 1
            else:
                runs.append([blk, 1])
        now = self.sim.now
        for start, length in runs:
            self.device.submit(
                IORequest(now, WRITE, start * self.block, length * self.block)
            )
        self.stats.flush_batches += 1
        self.stats.flushed_blocks += len(victims)

    def flush_all(self) -> None:
        """Flush every dirty block (shutdown / sync semantics)."""
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
        self._flush_batch(len(self._dirty))
        self.device.flush()
