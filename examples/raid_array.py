#!/usr/bin/env python3
"""EDC on a five-SSD RAIS5 array (the paper's Fig 11 scenario).

Builds a software RAID-5 of five simulated SSDs, puts EDC on top, and
replays an enterprise workload — showing that the EDC layer is oblivious
to whether it drives one device or an array, and how the array's
read-modify-write parity traffic shows up in the device statistics.

Run:  python examples/raid_array.py
"""

from repro.core import EDCBlockDevice, EDCConfig, ElasticPolicy, TraceReplayer
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
    array = RAIS5(devices, stripe_unit=4096)

    content = ContentStore(ENTERPRISE_MIX, pool_blocks=256, seed=2)
    device = EDCBlockDevice(sim, array, ElasticPolicy(), content, EDCConfig())

    trace = make_workload("Usr_0", duration=60.0, max_requests=None, seed=42)
    fold = 4 * int(x25e_like(64).logical_bytes * 0.8) // 4096 * 4096
    trace = trace.scaled_addresses(fold)
    print(f"replaying {len(trace)} Usr_0 requests on RAIS5 (5 x 64 MB SSDs)...")

    TraceReplayer(sim, device).replay(trace)

    s = device.stats
    print(f"\ncompression ratio: {s.compression_ratio:.2f}x "
          f"(saving {s.space_saving:.1%})")
    print(f"mean response:     {device.mean_response_time() * 1e3:.3f} ms "
          f"(writes {device.write_latency.mean() * 1e3:.3f}, "
          f"reads {device.read_latency.mean() * 1e3:.3f})")
    print(f"array ops:         {array.stats.rmw_writes} read-modify-write, "
          f"{array.stats.full_stripe_writes} full-stripe writes")
    print("\nper-device traffic:")
    for d in devices:
        print(f"  {d.name}: {d.stats.writes:6d} writes "
              f"({d.stats.bytes_written / 1e6:6.1f} MB), "
              f"{d.stats.reads:6d} reads, "
              f"WA {d.write_amplification():.2f}, "
              f"util {d.utilization():.1%}")
    parity_even = max(d.stats.bytes_written for d in devices) / max(
        1, min(d.stats.bytes_written for d in devices)
    )
    print(f"\nwrite balance across devices (max/min bytes): {parity_even:.2f} "
          f"(rotating parity spreads the load)")


if __name__ == "__main__":
    main()
