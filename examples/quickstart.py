#!/usr/bin/env python3
"""Quickstart: put an EDC device on top of a simulated SSD and use it.

Walks through the whole public API surface in one small script:

1. build a simulated X25-E-like SSD on a discrete-event simulator;
2. attach an :class:`~repro.core.device.EDCBlockDevice` running the
   elastic policy with a content store standing in for real data;
3. write and read some blocks, then inspect compression statistics,
   response times and the device's view of the workload.

Run:  python examples/quickstart.py
"""

from repro.core import EDCBlockDevice, EDCConfig, ElasticPolicy, TraceReplayer
from repro.flash import SimulatedSSD, x25e_like
from repro.sdgen import ContentStore
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sim import Simulator
from repro.traces.model import IORequest, Trace


def main() -> None:
    # --- 1. the substrate: event engine + simulated SSD -----------------
    sim = Simulator()
    ssd = SimulatedSSD(sim, geometry=x25e_like(capacity_mb=64))

    # --- 2. the EDC layer ------------------------------------------------
    # Content for the data-less requests comes from the SDGen-style
    # store: deterministic, compression-realistic blocks.
    content = ContentStore(ENTERPRISE_MIX, pool_blocks=256, seed=1)
    config = EDCConfig(
        store_payloads=True,   # keep compressed payloads ...
        verify_reads=True,     # ... and check every read bit-exactly
    )
    device = EDCBlockDevice(sim, ssd, ElasticPolicy(), content, config)

    # --- 3. drive it ------------------------------------------------------
    # A burst of writes: three contiguous blocks (the Sequentiality
    # Detector merges them into one compression unit), one random block,
    # then read everything back.
    requests = [
        IORequest(0.000000, "W", 0 * 4096, 4096),
        IORequest(0.000040, "W", 1 * 4096, 4096),
        IORequest(0.000080, "W", 2 * 4096, 4096),
        IORequest(0.000500, "W", 77 * 4096, 4096),
        IORequest(0.010000, "R", 0 * 4096, 3 * 4096),
        IORequest(0.020000, "R", 77 * 4096, 4096),
    ]
    # The replayer runs the event loop, flushes whatever the SD still
    # holds at the end of the stream, and runs again.
    TraceReplayer(sim, device).replay(Trace("quickstart", requests))

    # --- 4. inspect -------------------------------------------------------
    s = device.stats
    print("EDC quickstart")
    print(f"  writes handled:        {s.writes} (merged runs: {s.merged_runs})")
    print(f"  logical bytes written: {s.logical_bytes}")
    print(f"  physically stored:     {s.stored_bytes}")
    print(f"  compression ratio:     {s.compression_ratio:.2f}x "
          f"(space saving {s.space_saving:.1%})")
    print(f"  codec usage:           { {k: round(v, 2) for k, v in s.codec_shares().items()} }")
    print(f"  mean write response:   {device.write_latency.mean() * 1e6:.0f} us")
    print(f"  mean read response:    {device.read_latency.mean() * 1e6:.0f} us")
    print(f"  mapping entries:       {len(device.mapping)} "
          f"(metadata {device.mapping.metadata_bytes} B)")
    print(f"  device bytes written:  {ssd.stats.bytes_written} "
          f"(write amplification {ssd.write_amplification():.2f})")
    print("  all reads verified bit-exact against written content")


if __name__ == "__main__":
    main()
