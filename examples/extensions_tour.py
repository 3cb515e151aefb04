#!/usr/bin/env python3
"""Tour of the paper's future-work directions, implemented here.

The paper closes (§VI) with four research directions; this example runs
all four on small workloads:

1. **semantic hints** — file-type information steering codec selection;
2. **HDD backend** — the same EDC stack over spinning rust;
3. **energy** — the compression-vs-data-movement energy dichotomy;
4. **endurance** — erase-cycle savings projected into device lifetime.

Run:  python examples/extensions_tour.py
"""

from repro.core import (
    EDCBlockDevice, EDCConfig, ElasticPolicy, HintedPolicy, NativePolicy, TraceReplayer,
)
from repro.energy import EnergyModel
from repro.flash import EnduranceModel, SimulatedHDD, SimulatedSSD, x25e_like
from repro.sdgen import ContentStore
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sim import Simulator
from repro.traces import IORequest, Trace
from repro.traces.workloads import make_workload


def replay(policy, backend_kind="ssd", semantic_hints=False, duration=30.0,
           capacity_mb=64, rate_factor=1.0):
    sim = Simulator()
    geo = x25e_like(capacity_mb)
    backend = (
        SimulatedSSD(sim, geometry=geo)
        if backend_kind == "ssd"
        else SimulatedHDD(sim)
    )
    content = ContentStore(ENTERPRISE_MIX, pool_blocks=256, seed=3)
    dev = EDCBlockDevice(
        sim, backend, policy, content, EDCConfig(semantic_hints=semantic_hints)
    )
    trace = make_workload("Fin1", duration=duration, max_requests=None, seed=11)
    if rate_factor != 1.0:
        trace = Trace(trace.name, [
            IORequest(r.time * (1.0 / rate_factor), r.op, r.lba, r.nbytes)
            for r in trace
        ])
    trace = trace.scaled_addresses(int(geo.logical_bytes * 0.6) // 4096 * 4096)
    TraceReplayer(sim, dev).replay(trace)
    return sim, backend, dev


def main() -> None:
    print("== 1. semantic hints " + "=" * 40)
    _, _, plain = replay(ElasticPolicy())
    _, _, hinted = replay(HintedPolicy(), semantic_hints=True)
    print(f"  plain EDC : ratio {plain.stats.compression_ratio:.2f}, "
          f"{plain.engine.estimator.stats.total} estimator calls")
    print(f"  +hints    : ratio {hinted.stats.compression_ratio:.2f}, "
          f"{hinted.engine.estimator.stats.total} estimator calls "
          f"(file-type knowledge replaces sampling)")

    print("\n== 2. EDC on an HDD " + "=" * 41)
    # A disk absorbs ~80 random IOPS; feed it a correspondingly gentler
    # stream than the flash experiments use.
    sim, hdd, dev = replay(ElasticPolicy(), backend_kind="hdd", rate_factor=0.05)
    print(f"  ratio {dev.stats.compression_ratio:.2f}, "
          f"response {dev.mean_response_time() * 1e3:.2f} ms "
          f"(positioning-dominated), "
          f"{hdd.stats.seeks} seeks / {hdd.stats.sequential_hits} sequential hits")

    print("\n== 3. energy accounting " + "=" * 37)
    model = EnergyModel()
    for name, pol in (("Native", NativePolicy()), ("EDC", ElasticPolicy())):
        sim, ssd, dev = replay(pol)
        rep = model.measure(dev, [ssd], horizon_s=max(sim.now, 30.0))
        print(f"  {name:7s}: CPU {rep.cpu_joules:7.2f} J + "
              f"device-active {rep.device_active_joules:6.2f} J "
              f"= {rep.active_joules:7.2f} J active "
              f"({rep.joules_per_gb:.0f} J/GB)")

    print("\n== 4. endurance projection " + "=" * 34)
    endurance = EnduranceModel("MLC")
    for name, pol in (("Native", NativePolicy()), ("EDC", ElasticPolicy())):
        # A small device so the write churn actually wraps and erases.
        sim, ssd, dev = replay(pol, duration=120.0, capacity_mb=16)
        rep = endurance.report(ssd.ftl, observed_seconds=max(sim.now, 60.0))
        dwpd = endurance.drive_writes_per_day(ssd.geometry, rep)
        print(f"  {name:7s}: {rep.total_erases:4d} erases "
              f"(max {rep.max_block_erases}/block), WA {rep.write_amplification:.2f}, "
              f"sustains {dwpd:.1f} drive-writes/day over 5y")


if __name__ == "__main__":
    main()
