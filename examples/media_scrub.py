#!/usr/bin/env python3
"""Rot the media, watch the scrubber heal it: self-healing demo.

Replays a short Fin1 burst against the five-SSD RAIS5 backend under a
latent-error :class:`~repro.faults.FaultPlan` — retention loss silently
corrupting aged blocks and read disturb stressing the neighbours of hot
ones — twice:

1. **scrub off**: corruption accumulates unseen; the run verdicts
   CORRUPTION (exit code 3) with the corrupt extents still on media;
2. **scrub on**: a :class:`~repro.flash.scrub.MediaScrubber` daemon
   sweeps the live mapping between host bursts, verifies per-block
   CRCs with real (charged) reads, rebuilds every corrupt extent from
   RAIS5 parity through the normal device write path, and retires
   blocks that keep striking out — verdict RECOVERED (exit code 0),
   zero host reads ever touching corrupt media.

Then prints the scrub audit trail (the GC-audit analogue: every repair,
retirement and orphan trim, fully attributed) and the ``scrub.*`` /
``latent.*`` slice of the Prometheus exposition.

Run:  python examples/media_scrub.py
"""

from repro.bench.chaos import render, run_chaos
from repro.faults import FaultPlan
from repro.telemetry import TimeSeriesSampler, render_exposition


def latent_plan() -> FaultPlan:
    # The committed chaos plan (benchmarks/latent_fin1.json) inlined:
    # slow charge leakage plus mild read disturb, fully seeded.
    return FaultPlan(
        seed=7,
        retention={
            "rate_per_s": 0.01,        # per-second corruption hazard...
            "age_factor": 0.5,         # ...growing with data age
            "check_interval_s": 0.05,  # hazard sweep period
        },
        read_disturb={
            "reads_per_trigger": 256,  # every 256th read stresses a neighbour
            "corrupt_prob": 0.02,
        },
    )


def main() -> None:
    # --- 1. scrub off: latent corruption wins ----------------------------
    off = run_chaos(latent_plan(), trace_name="Fin1", backend="rais5",
                    duration=5.0)
    print(render(off))
    print()

    # --- 2. scrub on: the daemon wins ------------------------------------
    # scrub_interval arms a MediaScrubber on the device; everything else
    # is identical.  Repair reads and rewrites are charged into the
    # queues, write amplification and energy exactly like GC traffic.
    sampler = TimeSeriesSampler(interval=0.25)
    on = run_chaos(latent_plan(), trace_name="Fin1", backend="rais5",
                   duration=5.0, scrub_interval=0.005, sampler=sampler)
    print(render(on))
    print()

    # --- 3. the audit trail ----------------------------------------------
    # Every scrub action is an attributed episode; it is the ``scrub``
    # section of the run record that
    # ``python -m repro.bench chaos ... --record PATH`` writes, and is
    # rendered inside the DeviceHealth dashboard.
    print(f"scrub stats: {on.sections['scrub']['stats']}")
    print()

    # --- 4. the scrub.* / latent.* metric families ------------------------
    # These families exist only when a scrubber / latent model is armed;
    # a plain replay's exposition is unchanged.
    print("scrub & latent families in the exposition:")
    for line in render_exposition(sampler=sampler).splitlines():
        if any(k in line for k in ("scrub", "latent", "corrupt")):
            if not line.startswith("#"):
                print(f"  {line}")
    print()

    assert off.exit_code == 3, "scrub off must verdict CORRUPTION"
    assert on.exit_code == 0, "scrub on must verdict RECOVERED"


if __name__ == "__main__":
    main()
