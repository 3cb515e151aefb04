#!/usr/bin/env python3
"""The complete published stack: DRAM buffer → EDC → flash, plus a fault.

The paper's §II-C notes that upper-layer DRAM buffering is what makes
the I/O stream EDC sees bursty and clustered.  This example assembles
that full stack, replays a mixed workload, then injects a device failure
into the RAIS5 array and rebuilds it — exercising write-back caching,
elastic compression, parity redundancy and reconstruction in one run.

Run:  python examples/full_stack.py
"""

from repro.core import EDCBlockDevice, EDCConfig, ElasticPolicy, WriteBackBuffer
from repro.flash import RAIS5, SimulatedSSD, x25e_like
from repro.sdgen import ContentStore
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sim import Simulator
from repro.traces.workloads import make_workload


def main() -> None:
    sim = Simulator()
    devices = [
        SimulatedSSD(sim, name=f"ssd{i}", geometry=x25e_like(64)) for i in range(5)
    ]
    array = RAIS5(devices)
    content = ContentStore(ENTERPRISE_MIX, pool_blocks=256, seed=4)
    edc = EDCBlockDevice(sim, array, ElasticPolicy(), content, EDCConfig())
    buffer = WriteBackBuffer(
        sim, edc, capacity_blocks=512, flush_interval=0.25
    )

    trace = make_workload("Fin1", duration=30.0, max_requests=None, seed=21)
    fold = 4 * int(x25e_like(64).logical_bytes * 0.7) // 4096 * 4096
    trace = trace.scaled_addresses(fold)
    print(f"phase 1: replaying {len(trace)} requests through "
          f"buffer -> EDC -> RAIS5 ...")
    sim.arrivals(trace, buffer.submit, trace.times)
    sim.run()
    buffer.flush_all()
    sim.run()

    print(f"  buffered writes: {buffer.stats.buffered_writes} "
          f"(write hits absorbed: {buffer.stats.write_hits})")
    print(f"  flush batches:   {buffer.stats.flush_batches} "
          f"({buffer.stats.flushed_blocks} blocks, coalesced)")
    print(f"  EDC ratio:       {edc.stats.compression_ratio:.2f}x "
          f"({edc.stats.merged_runs} merged runs)")
    print(f"  buffer write ack: {buffer.write_latency.mean() * 1e6:.0f} us "
          f"(DRAM); device-level writes happen in the background")

    # ------------------------------------------------------------------
    print("\nphase 2: failing ssd2, continuing degraded ...")
    array.fail_device(2)
    tail = make_workload("Fin1", duration=5.0, max_requests=None, seed=99)
    tail = tail.scaled_addresses(fold)
    base = sim.now + 0.001
    for req in tail:
        sim.schedule_at(base + req.time, lambda r=req: buffer.submit(r))
    sim.run()
    buffer.flush_all()
    sim.run()
    print(f"  degraded reads:  {array.stats.degraded_reads}")
    print(f"  degraded writes: {array.stats.degraded_writes}")

    # ------------------------------------------------------------------
    print("\nphase 3: rebuilding onto a spare ...")
    spare = SimulatedSSD(sim, name="spare", geometry=x25e_like(64))
    t0 = sim.now
    done = []
    array.rebuild(spare, on_complete=lambda: done.append(sim.now))
    sim.run()
    print(f"  rebuilt {array.stats.rebuilt_rows} stripe rows "
          f"in {(done[0] - t0) * 1e3:.1f} ms of device time")
    print(f"  array healthy again: degraded={array.degraded}")


if __name__ == "__main__":
    main()
