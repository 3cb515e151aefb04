#!/usr/bin/env python3
"""Why did EDC pick that codec?  Decision-audit and shadow-policy demo.

Replays a short Fin1 burst against the EDC device with a
:class:`~repro.telemetry.DecisionAuditor` attached, consulting three
shadow policies (always-LZF, always-gzip, and an EDC clone) on every
write decision, then prints:

1. the per-band regret table — the live policy's stored bytes and
   codec CPU against each shadow's counterfactual, plus how often each
   shadow would have decided differently;
2. a handful of reservoir-sampled decision events, end to end: the
   monitor snapshot the decision was made from, the estimator verdict,
   the chosen codec, the slot class, and what every shadow would have
   done instead;
3. a JSON-lines dump and a self-diff through
   ``python -m repro.bench diff`` (exit 0 — same run, no drift).

The headline property: auditing is *side-effect-free*.  The audited
replay returns bit-identical results to a bare one, and the EDC clone
among the shadows never diverges from the live device.

Run:  python examples/decision_audit.py
"""

import io
import json

from repro.bench.diff import AuditDump, diff_dumps, render_diff
from repro.bench.experiments import ReplayConfig, replay
from repro.bench.report import render_audit
from repro.sim.engine import Simulator
from repro.telemetry import (
    DecisionAuditor,
    Telemetry,
    dump_audit_jsonl,
    parse_shadow_spec,
)
from repro.traces.workloads import make_workload


def main() -> None:
    # --- audited replay --------------------------------------------------
    # The auditor is opt-in like Telemetry: replay() wires it to the
    # device, and every write decision lands in its exact aggregates
    # plus a seeded uniform reservoir of full events.  Attaching a
    # Telemetry too gives each event its per-layer latency breakdown.
    auditor = DecisionAuditor(shadows=parse_shadow_spec("lzf,gzip,edc"))
    trace = make_workload("Fin1", duration=10.0, seed=42)
    cfg = ReplayConfig(capacity_mb=64)
    result = replay(trace, "EDC", cfg,
                    telemetry=Telemetry(Simulator()), auditor=auditor)
    print(f"replayed {result.n_requests} Fin1 requests under EDC "
          f"(mean response {result.mean_response * 1e3:.3f} ms)\n")

    # The invariant the test suite pins: observation never perturbs
    # the simulation.
    bare = replay(trace, "EDC", cfg)
    assert bare == result, "auditing must be side-effect-free"
    edc_clone = auditor.shadow_grand_totals()["EDC"]
    assert edc_clone.divergences == 0, "an EDC clone never diverges"

    # --- 1. the regret table ---------------------------------------------
    print(render_audit(auditor))

    # --- 2. a few full decision events -----------------------------------
    print("\nthree reservoir-sampled decisions:")
    for ev in sorted(auditor.events, key=lambda e: e["t"])[:3]:
        shadows = ", ".join(
            f"{name}:{s['selected']}{'*' if s['diverged'] else ''}"
            for name, s in sorted(ev["shadows"].items())
        )
        print(f"  t={ev['t']:.3f}s lba={ev['lba']} "
              f"iops={ev['iops']:.0f} band={ev['band']} "
              f"est={ev['est_verdict']} -> {ev['selected']} "
              f"(stored as {ev['stored']}: {ev['original']}B -> "
              f"{ev['payload']}B, slot {ev['slot_bytes']}B) "
              f"shadows [{shadows}]")
    print("  (* = the shadow would have chosen differently)")

    # --- 3. dump + diff ---------------------------------------------------
    buf = io.StringIO()
    n = dump_audit_jsonl(auditor, buf)
    print(f"\ndumped {n} JSONL lines "
          f"(meta: {json.loads(buf.getvalue().splitlines()[0])['kind']})")
    with open("decision_audit.jsonl", "w", encoding="utf-8") as fp:
        fp.write(buf.getvalue())
    a = AuditDump.load("decision_audit.jsonl")
    print()
    print(render_diff(a, a, diff_dumps(a, a)))
    print("\nwrote decision_audit.jsonl — compare another run with:")
    print("  python -m repro.bench diff decision_audit.jsonl other.jsonl")


if __name__ == "__main__":
    main()
