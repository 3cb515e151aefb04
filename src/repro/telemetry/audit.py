"""Decision provenance: the per-write policy audit trail.

The telemetry of PRs 1-2 records *outcomes* — latencies, ratios, band
counters — but never the *inputs* of the elastic decision itself, so a
mis-tuned band threshold or a misfiring compressibility estimator is
invisible until it shows up as a scalar regression.  The
:class:`DecisionAuditor` closes that gap: for every write the EDC device
handles it records a compact structured event —

- simulation time, LBA, run length and sequentiality-merge membership;
- the calculated IOPS the Workload Monitor reported and the
  :meth:`~repro.core.policy.ElasticPolicy.band_index` it implied
  (plus the monitor's window occupancy, via
  :class:`~repro.core.monitor.MonitorSnapshot`);
- whether the sampled estimator ran and its compressibility verdict;
- the selected codec, the *stored* codec after the gate / 75 % rule,
  compressed payload size and the size-class slot it landed in;
- at completion, the response time and (when a
  :class:`~repro.telemetry.probes.Telemetry` is attached to the same
  device) the per-layer latency breakdown the span tracer attributed.

Memory is constant regardless of replay length: exact aggregate
counters (per band, per selected codec, per shadow) plus a fixed-size
reservoir sample of full events.

**Shadow policies** make the trail counterfactual: N additional
:class:`~repro.core.policy.CompressionPolicy` instances are consulted
side-effect-free on the same inputs (same IOPS, same hint, same content
bytes), and the auditor accounts the compressed bytes, size-class slot
and codec CPU seconds each shadow *would* have produced, plus how often
its selection diverged from the live policy's.  The per-band totals
yield the "regret" tables (`EDC vs best-static`) in the bench report:
how much space or CPU the elastic decision left on the table against
the best fixed scheme, band by band.

Auditing is opt-in and invisible when off: the auditor is a subscriber
of the device's ``write_planned`` / ``write_committed`` / ``write_done``
events (:mod:`repro.sim.events`), and shadow consultation only touches
the engine's memoised planning (no simulator events, no stats), so an
audited replay is bit-identical to an unaudited one.

Export: :func:`dump_audit_jsonl` writes the aggregates and the
reservoir as JSON lines; ``python -m repro.bench.diff`` consumes two
such dumps and reports decision-distribution shift and per-band
latency/ratio deltas (see :mod:`repro.bench.diff`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from repro.core.policy import (
    CompressionPolicy,
    ElasticPolicy,
    FixedPolicy,
    NativePolicy,
)

__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "KNOWN_SHADOW_SPECS",
    "BandTotals",
    "ShadowTotals",
    "DecisionAuditor",
    "shadow_policy",
    "parse_shadow_spec",
    "dump_audit_jsonl",
]

#: Version stamp of the audit JSONL record layout.
AUDIT_SCHEMA_VERSION = 1

#: Shadow-policy specs ``parse_shadow_spec`` understands.
KNOWN_SHADOW_SPECS = ("native", "lzf", "gzip", "bzip2", "edc")

#: Synthetic band index used when the live policy has no band ladder
#: (fixed schemes); rendered as label ``all``.
NO_BAND = -1


@dataclass
class BandTotals:
    """Exact per-band accounting of the live policy's decisions."""

    n: int = 0
    merged_requests: int = 0
    logical_bytes: int = 0
    payload_bytes: int = 0
    stored_bytes: int = 0
    cpu_seconds: float = 0.0
    #: sum of per-request response times over completed audited writes
    response_seconds: float = 0.0
    responses: int = 0
    gated: int = 0
    failed_75pct: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "merged_requests": self.merged_requests,
            "logical_bytes": self.logical_bytes,
            "payload_bytes": self.payload_bytes,
            "stored_bytes": self.stored_bytes,
            "cpu_seconds": self.cpu_seconds,
            "response_seconds": self.response_seconds,
            "responses": self.responses,
            "gated": self.gated,
            "failed_75pct": self.failed_75pct,
        }


@dataclass
class ShadowTotals:
    """Exact per-(shadow, band) counterfactual accounting."""

    n: int = 0
    payload_bytes: int = 0
    stored_bytes: int = 0
    cpu_seconds: float = 0.0
    divergences: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "payload_bytes": self.payload_bytes,
            "stored_bytes": self.stored_bytes,
            "cpu_seconds": self.cpu_seconds,
            "divergences": self.divergences,
        }


def shadow_policy(spec: str) -> CompressionPolicy:
    """Build one shadow :class:`CompressionPolicy` from a CLI spec.

    ``native`` → :class:`NativePolicy`; ``lzf``/``gzip``/``bzip2`` →
    the matching :class:`FixedPolicy`; ``edc`` → a default-band
    :class:`ElasticPolicy` (useful as the identical-shadow invariant
    check against a live default EDC device).
    """
    key = spec.strip().lower()
    if key == "native":
        return NativePolicy()
    if key in ("lzf", "gzip", "bzip2"):
        return FixedPolicy(key)
    if key == "edc":
        return ElasticPolicy()
    raise ValueError(
        f"unknown shadow policy spec {spec!r}; known: {KNOWN_SHADOW_SPECS}"
    )


def parse_shadow_spec(spec: str) -> List[CompressionPolicy]:
    """``"lzf,gzip,native"`` → the shadow policy list (empty spec → [])."""
    return [shadow_policy(s) for s in spec.split(",") if s.strip()]


class DecisionAuditor:
    """Records decision provenance for every write of one device.

    Parameters
    ----------
    shadows:
        Extra policies consulted side-effect-free on each decision.
    reservoir_capacity:
        Maximum full events kept (uniform reservoir sample over the
        whole replay); aggregates stay exact regardless.
    seed:
        Seed of the reservoir's private RNG — audited replays stay
        deterministic end to end.
    """

    def __init__(
        self,
        shadows: Sequence[CompressionPolicy] = (),
        reservoir_capacity: int = 2048,
        seed: int = 1,
    ) -> None:
        if reservoir_capacity < 1:
            raise ValueError(
                f"reservoir_capacity must be >= 1: {reservoir_capacity!r}"
            )
        self.shadow_policies: List[Tuple[str, CompressionPolicy]] = []
        seen: Dict[str, int] = {}
        for policy in shadows:
            name = policy.name
            if name in seen:
                seen[name] += 1
                name = f"{name}#{seen[policy.name]}"
            else:
                seen[name] = 1
            self.shadow_policies.append((name, policy))
        self.reservoir_capacity = reservoir_capacity
        self._rng = random.Random(seed)
        self.device = None
        self.n_decisions = 0
        #: reservoir-sampled full events (dicts, JSONL-shaped)
        self.events: List[dict] = []
        self.band_totals: Dict[int, BandTotals] = {}
        #: (band, selected codec) -> decision count
        self.selections: Dict[Tuple[int, str], int] = {}
        #: (shadow name, band) -> counterfactual totals
        self.shadow_totals: Dict[Tuple[str, int], ShadowTotals] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind_device(self, device) -> None:
        """Attach to the device whose decisions this auditor records."""
        if self.device is not None and self.device is not device:
            raise RuntimeError(
                "DecisionAuditor is single-device; build one per device"
            )
        self.device = device
        device.observers["auditor"] = self
        device.events.subscribe("write_planned", self.on_decision)
        device.events.subscribe("write_committed", self.on_commit)
        device.events.subscribe("write_done", self.on_complete)

    @property
    def shadow_names(self) -> List[str]:
        return [name for name, _ in self.shadow_policies]

    # ------------------------------------------------------------------
    # device event handlers
    # ------------------------------------------------------------------
    def on_decision(self, run, run_ids, hint, codec_name, plan) -> None:
        """One write unit was planned; record inputs + consult shadows.

        The :class:`~repro.core.monitor.MonitorSnapshot` (band + window
        state) is taken here — a pure query at the decision instant, so
        it reads the intensity the device just decided on; ``plan`` is
        the live :class:`~repro.core.engine.WritePlan`.  The event rides
        on the run through commit and completion.
        """
        device = self.device
        snap = device.monitor.snapshot(device.sim.now, device.policy)
        band = snap.band_index if snap.band_index is not None else NO_BAND
        selected = codec_name if codec_name is not None else "raw"
        event = {
            "kind": "event",
            "t": snap.time,
            "lba": run.start_lba,
            "nbytes": run.nbytes,
            "n_merged": run.n_merged,
            "iops": snap.calculated_iops,
            "window_requests": snap.window_requests,
            "band": None if band == NO_BAND else band,
            "hint": hint,
            "selected": selected,
            "stored": plan.codec_name,
            "gated": plan.gated,
            "failed_75pct": plan.failed_75pct,
            "estimated": plan.estimate_time > 0.0,
            "est_verdict": not plan.gated,
            "original": plan.original_size,
            "payload": plan.payload_size,
            "slot_bytes": None,  # filled at commit
            "slot_frac": None,
            "cpu_time": plan.cpu_time,
            "response": None,  # filled at completion
            "breakdown": None,
            "shadows": {},
            # internal (stripped before export)
            "_band": band,
            "_arrival": run.arrivals[0] if run.arrivals else snap.time,
        }
        for name, policy in self.shadow_policies:
            s_codec, s_plan, _fallback = device.plan_for_policy(
                policy, run_ids, snap.calculated_iops, hint
            )
            s_cls = device.allocator.class_for(
                s_plan.payload_size, s_plan.original_size
            )
            s_selected = s_codec if s_codec is not None else "raw"
            event["shadows"][name] = {
                "selected": s_selected,
                "stored": s_plan.codec_name,
                "payload": s_plan.payload_size,
                "slot_bytes": s_cls.nbytes,
                "cpu_time": s_plan.cpu_time,
                "diverged": s_selected != selected,
            }
        run.note("auditor", event)

    def on_commit(self, run, cls) -> None:
        """The live write was allocated: record its size-class slot."""
        event = run.notes["auditor"]
        event["slot_bytes"] = cls.nbytes
        event["slot_frac"] = cls.fraction

    def on_complete(self, run) -> None:
        """Device completion: finalise the event into the aggregates.

        When a :class:`~repro.telemetry.probes.Telemetry` instruments
        the same device, the run carries its timing record; that
        per-layer attribution becomes the event's breakdown.
        """
        event = run.notes["auditor"]
        rec = run.notes.get("telemetry")
        now = self.device.sim.now
        arrival = event.pop("_arrival")
        band = event.pop("_band")
        event["response"] = now - arrival
        if rec is not None:
            event["breakdown"] = self._breakdown_from_rec(rec, run, now)

        self.n_decisions += 1
        bt = self.band_totals.get(band)
        if bt is None:
            bt = self.band_totals[band] = BandTotals()
        bt.n += 1
        bt.merged_requests += event["n_merged"]
        bt.logical_bytes += event["original"]
        bt.payload_bytes += event["payload"]
        stored = event["slot_bytes"]
        bt.stored_bytes += stored if stored is not None else event["payload"]
        bt.cpu_seconds += event["cpu_time"]
        bt.response_seconds += event["response"]
        bt.responses += 1
        if event["gated"]:
            bt.gated += 1
        if event["failed_75pct"]:
            bt.failed_75pct += 1
        sel_key = (band, event["selected"])
        self.selections[sel_key] = self.selections.get(sel_key, 0) + 1
        for name, shadow in event["shadows"].items():
            st = self.shadow_totals.get((name, band))
            if st is None:
                st = self.shadow_totals[(name, band)] = ShadowTotals()
            st.n += 1
            st.payload_bytes += shadow["payload"]
            st.stored_bytes += shadow["slot_bytes"]
            st.cpu_seconds += shadow["cpu_time"]
            if shadow["diverged"]:
                st.divergences += 1
        self._reservoir_insert(event)

    # ------------------------------------------------------------------
    @staticmethod
    def _breakdown_from_rec(rec, run, now: float) -> Dict[str, float]:
        """Per-layer seconds for one run, mirroring the span tracer's
        attribution in :meth:`Telemetry.write_run_done` (oldest-request
        view of the queue component)."""
        flash_total = now - rec.t_commit
        service = min(rec.flash_service, flash_total)
        flash_wait = flash_total - service
        gc = min(rec.gc_stall, service)
        est = min(rec.estimate_time, rec.cpu_service)
        sd_hold = rec.t_enqueue - (run.arrivals[0] if run.arrivals else rec.t_enqueue)
        return {
            "queue": sd_hold + rec.cpu_wait + flash_wait,
            "estimate": est,
            "compress": rec.cpu_service - est,
            "flash_program": service - gc,
            "gc_stall": gc,
        }

    def _reservoir_insert(self, event: dict) -> None:
        if len(self.events) < self.reservoir_capacity:
            self.events.append(event)
            return
        j = self._rng.randrange(self.n_decisions)
        if j < self.reservoir_capacity:
            self.events[j] = event

    # ------------------------------------------------------------------
    # queries (sampler vocabulary + report rendering)
    # ------------------------------------------------------------------
    def band_label(self, band: int) -> str:
        """Human label for one band index (``all`` for bandless policies)."""
        if band == NO_BAND:
            return "all"
        device = self.device
        policy = device.policy if device is not None else None
        if policy is not None and hasattr(policy, "band_labels"):
            labels = policy.band_labels()
            if 0 <= band < len(labels):
                return labels[band]
        return f"band{band}"

    def bands(self) -> List[int]:
        """Band indices seen so far, ascending (``NO_BAND`` first)."""
        return sorted(self.band_totals)

    def divergence_shares(self) -> Dict[str, float]:
        """Per-shadow fraction of decisions that diverged from live."""
        if self.n_decisions == 0:
            return {}
        out: Dict[str, int] = {}
        for (name, _band), st in self.shadow_totals.items():
            out[name] = out.get(name, 0) + st.divergences
        return {k: v / self.n_decisions for k, v in out.items()}

    def totals(self) -> BandTotals:
        """Exact totals over every band."""
        out = BandTotals()
        for bt in self.band_totals.values():
            out.n += bt.n
            out.merged_requests += bt.merged_requests
            out.logical_bytes += bt.logical_bytes
            out.payload_bytes += bt.payload_bytes
            out.stored_bytes += bt.stored_bytes
            out.cpu_seconds += bt.cpu_seconds
            out.response_seconds += bt.response_seconds
            out.responses += bt.responses
            out.gated += bt.gated
            out.failed_75pct += bt.failed_75pct
        return out

    def shadow_grand_totals(self) -> Dict[str, ShadowTotals]:
        out: Dict[str, ShadowTotals] = {}
        for (name, _band), st in self.shadow_totals.items():
            agg = out.setdefault(name, ShadowTotals())
            agg.n += st.n
            agg.payload_bytes += st.payload_bytes
            agg.stored_bytes += st.stored_bytes
            agg.cpu_seconds += st.cpu_seconds
            agg.divergences += st.divergences
        return out

    def regret_summary(self) -> Optional[Dict[str, object]]:
        """``EDC vs best-static`` over the whole run (None without shadows).

        ``space_regret_bytes`` is live stored bytes minus the
        best (smallest) shadow's; ``cpu_regret_seconds`` live codec CPU
        minus the cheapest shadow's.  Positive regret = the elastic
        decision did worse than that static policy on that axis;
        negative = it beat every static one.
        """
        grand = self.shadow_grand_totals()
        if not grand:
            return None
        live = self.totals()
        best_space = min(grand.items(), key=lambda kv: kv[1].stored_bytes)
        best_cpu = min(grand.items(), key=lambda kv: kv[1].cpu_seconds)
        return {
            "best_space_shadow": best_space[0],
            "space_regret_bytes": live.stored_bytes - best_space[1].stored_bytes,
            "best_cpu_shadow": best_cpu[0],
            "cpu_regret_seconds": live.cpu_seconds - best_cpu[1].cpu_seconds,
        }

    # ------------------------------------------------------------------
    def policy_name(self) -> str:
        device = self.device
        return device.policy.name if device is not None else "?"

    def band_bounds(self) -> Optional[List[Optional[float]]]:
        """Band upper bounds of the live policy (inf → None), if banded."""
        device = self.device
        policy = device.policy if device is not None else None
        bands = getattr(policy, "bands", None)
        if bands is None:
            return None
        return [
            None if b.upper_iops == float("inf") else b.upper_iops
            for b in bands
        ]


# ----------------------------------------------------------------------
# JSONL export
# ----------------------------------------------------------------------
def dump_audit_jsonl(auditor: DecisionAuditor, fp: TextIO) -> int:
    """Write the audit trail as JSON lines; returns the line count.

    Line kinds (all carry ``"kind"``): one ``meta`` header; one ``band``
    per band with the exact live totals; one ``selection`` per
    (band, selected codec); one ``shadow`` per (shadow, band); then the
    reservoir's ``event`` lines.  Bands are integers, ``null`` meaning
    "no band ladder" (fixed live policy).
    """

    def band_json(band: int):
        return None if band == NO_BAND else band

    n = 0

    def emit(obj: dict) -> None:
        nonlocal n
        fp.write(json.dumps(obj, sort_keys=True))
        fp.write("\n")
        n += 1

    emit({
        "kind": "meta",
        "version": AUDIT_SCHEMA_VERSION,
        "policy": auditor.policy_name(),
        "bands": auditor.band_bounds(),
        "shadows": auditor.shadow_names,
        "n_decisions": auditor.n_decisions,
        "reservoir_capacity": auditor.reservoir_capacity,
        "reservoir_kept": len(auditor.events),
    })
    for band in auditor.bands():
        bt = auditor.band_totals[band]
        row = {"kind": "band", "band": band_json(band),
               "label": auditor.band_label(band)}
        row.update(bt.as_dict())
        emit(row)
    for (band, codec) in sorted(auditor.selections):
        emit({
            "kind": "selection",
            "band": band_json(band),
            "codec": codec,
            "n": auditor.selections[(band, codec)],
        })
    for (name, band) in sorted(auditor.shadow_totals):
        st = auditor.shadow_totals[(name, band)]
        row = {"kind": "shadow", "shadow": name, "band": band_json(band)}
        row.update(st.as_dict())
        emit(row)
    for event in sorted(auditor.events, key=lambda e: e["t"]):
        emit(event)
    return n
