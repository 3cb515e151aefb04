#!/usr/bin/env python3
"""Break the array on purpose: chaos replay demo.

Replays a short Fin1 burst against the five-SSD RAIS5 backend under a
seeded :class:`~repro.faults.FaultPlan` — transient read faults,
wear-coupled bit errors, program failures (bad-block retirement),
latency spikes and one scheduled whole-device failure — then prints:

1. the ``chaos`` :class:`~repro.bench.record.RunRecord` — retries and
   recoveries, blocks retired, the degraded window and the event-driven
   rebuild, latency percentiles *inside* the degraded window, and the
   RECOVERED / DATA LOSS verdict;
2. the ``faults.*`` / ``array.*`` slice of the Prometheus exposition the
   time-series sampler scraped during the same run;
3. the same plan with the faults dialled to zero, demonstrating the
   bit-identity guarantee: an empty plan replays exactly the baseline.

Run:  python examples/chaos_replay.py
"""

from repro.bench.chaos import render, run_chaos
from repro.bench.experiments import ReplayConfig, replay
from repro.faults import DeviceFailure, FaultPlan
from repro.telemetry import TimeSeriesSampler, render_exposition
from repro.traces.workloads import make_workload


def main() -> None:
    # --- 1. the chaos replay ---------------------------------------------
    # Every number below is part of the deterministic plan: same seed,
    # same trace, same faults, same report — chaos you can bisect.
    plan = FaultPlan(
        seed=7,
        read_fault_prob=0.01,          # 1% of read attempts fail transiently
        wear_ber_per_pe=5e-4,          # ...more often on heavily cycled blocks
        program_fault_prob=0.002,      # bad blocks: remap-and-retire
        latency_spike_prob=0.005,
        latency_spike_s=2e-3,
        device_failures=(DeviceFailure(at=5.0, device="ssd2"),),
        rebuild_delay_s=0.25,
        rebuild_batch_rows=8,
    )
    sampler = TimeSeriesSampler(interval=0.25)
    report = run_chaos(plan, trace_name="Fin1", backend="rais5",
                       duration=10.0, sampler=sampler)
    print(render(report))

    # --- 2. the fault metric families ------------------------------------
    # The sampler's vocabulary gains faults.* / edc.* / array.* only on
    # fault-injected runs; a plain replay's exposition is unchanged.
    print("\nfault families in the exposition:")
    for line in render_exposition(sampler=sampler).splitlines():
        if any(k in line for k in ("faults", "array", "unrecovered", "fallback")):
            if not line.startswith("#"):
                print(f"  {line}")

    # --- 3. the bit-identity guarantee -----------------------------------
    trace = make_workload("Fin1", duration=2.0)
    cfg = ReplayConfig(backend="rais5")
    base = replay(trace, "EDC", cfg)
    empty = replay(trace, "EDC", cfg, fault_plan=FaultPlan.empty())
    print(f"\nempty-plan replay identical to baseline: {base == empty}")
    assert base == empty


if __name__ == "__main__":
    main()
