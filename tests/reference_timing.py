"""A Native replay on one SSD as Lindley's recursion, kept as the test oracle.

Scheme Native plans cost no CPU time and Native has no Sequentiality
Detector, so on a single SSD without garbage collection every request
meets exactly one FIFO server, the SSD queue.  Its response then follows
from the folded trace alone: the device finishes job ``i`` at

    c_i = max(a_i, c_{i-1}) + s_i

where ``a_i`` is the arrival and ``s_i`` the service time that
:meth:`SimulatedSSD.service_write_time` / ``service_read_time`` charge.
A write is one job of its block-aligned size.  A read is one job per
piece, split the way ``EDCBlockDevice._resolve_read`` splits it: each
extent that covers one of its blocks is fetched whole, once, and each
run of never-written blocks is one raw read.  The request completes with
its last piece.

Nothing here runs the event engine, the FTL or the mapping table: the
block map below is a dict, and the queue is one float.
``tests/test_timing_twin.py`` replays the same traces through the whole
stack and compares every response, bit for bit.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.bench.experiments import ReplayConfig
from repro.flash.geometry import X25E_TIMING
from repro.flash.ssd import SimulatedSSD
from repro.traces.model import Trace, fold_request

__all__ = ["native_responses"]


def native_responses(
    trace: Trace, cfg: Optional[ReplayConfig] = None
) -> List[Tuple[tuple, float]]:
    """``((time, op, lba, nbytes), response)`` of each folded request, in
    arrival order, for a Native replay of ``trace`` under ``cfg``."""
    cfg = cfg if cfg is not None else ReplayConfig()
    ssd = SimpleNamespace(timing=X25E_TIMING)  # the one attribute both timings read
    write_time = partial(SimulatedSSD.service_write_time, ssd)
    read_time = partial(SimulatedSSD.service_read_time, ssd)
    bs = cfg.device_config.block_size
    max_bytes = cfg.fold_bytes(bs)
    #: block -> (extent id, extent bytes) of the newest write covering it
    cover: Dict[int, Tuple[int, int]] = {}
    free_at = 0.0
    out = []
    for n, raw in enumerate(trace):
        req = fold_request(raw, max_bytes, bs)
        arrival = req.time
        first = req.lba // bs
        end = (req.lba + req.nbytes + bs - 1) // bs
        if req.is_write:
            size = (end - first) * bs
            for blk in range(first, end):
                cover[blk] = (n, size)
            services = [write_time(size)]
        else:
            services = []
            seen = set()
            raw_len = 0
            for blk in range(first, end):
                hit = cover.get(blk)
                if hit is None:
                    raw_len += bs
                    continue
                if raw_len:
                    services.append(read_time(raw_len))
                    raw_len = 0
                if hit[0] not in seen:
                    seen.add(hit[0])
                    services.append(read_time(hit[1]))
            if raw_len:
                services.append(read_time(raw_len))
        for service in services:
            free_at = max(arrival, free_at) + service
        out.append(((req.time, req.op, req.lba, req.nbytes), free_at - arrival))
    return out
