"""Device health telemetry: SMART page, GC audit, temperature map.

:class:`DeviceHealth` is the observability layer over
:mod:`repro.flash.introspect`.  Bound to an
:class:`~repro.core.device.EDCBlockDevice` it collects three
attribution surfaces without perturbing the replay:

- the **SMART snapshot** and **space waterfall** (pure queries over
  allocator/FTL counters, built on demand);
- a **per-GC-episode audit**: every collection and bad-block
  retirement is captured as a :class:`GcEpisode` (victim block, valid
  pages moved, bytes reclaimed, efficiency, trigger reason) into a
  bounded ring, fed by the FTLs' ``gc`` / ``retire`` events;
- an **LBA-region temperature map**: EWMA access recency/frequency per
  fixed-size region, fed from the
  :class:`~repro.core.monitor.WorkloadMonitor`'s ``record`` event —
  the direct input for temperature-aware background recompression
  (ROADMAP item 3).

Binding is **purely observational**: every handler only records into
Python state and never schedules a simulation event, so a replay with
health introspection attached is bit-identical (mapping/allocator
digests) to one without — the tier-1 suite pins this.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.flash.introspect import (
    SmartSnapshot,
    SpaceWaterfall,
    ftls_of,
    smart_snapshot,
    space_waterfall,
)

__all__ = [
    "GcEpisode",
    "TemperatureMap",
    "DeviceHealth",
    "render_smart",
    "render_waterfall",
    "render_heatmap",
    "dump_health_json",
]

#: Shade ramp of the ASCII heatmap / waterfall bars (cold → hot).
HEAT_CHARS = " ▁▂▃▄▅▆▇█"
#: GC episodes kept for the audit (older ones are counted only)
MAX_EPISODES = 4096
#: LBA span of one temperature-map region
REGION_BYTES = 1 << 20
#: seconds for a region's heat to decay by half
HALF_LIFE_S = 2.0
#: NAND cell type the SMART page rates endurance against
CELL_TYPE = "SLC"


def _human(nbytes: float) -> str:
    """Human-readable byte count (binary units)."""
    n = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    return f"{n:.1f} GiB"  # pragma: no cover - defensive


@dataclass(frozen=True, slots=True)
class GcEpisode:
    """One garbage-collection (or retirement) episode, fully attributed."""

    #: simulation time the episode completed
    t: float
    victim_block: int
    #: valid bytes relocated out of the victim
    moved_bytes: int
    #: valid 4 KiB-page equivalents moved (ceil)
    valid_pages: int
    #: bytes the erase gave back
    reclaimed_bytes: int
    #: reclaimed / block capacity — 1.0 is a free erase, 0.0 pure churn
    efficiency: float
    #: victim's erase count *after* this episode
    erase_count: int
    #: why GC ran: ``low_free`` (frontier refill) or ``retire``
    trigger: str
    #: host stream whose write forced the collection (-1 for retirement)
    stream: int = 0


class TemperatureMap:
    """EWMA access heat per fixed-size LBA region.

    Each recorded request adds its page count to the region covering
    its LBA after decaying the region's previous heat by
    ``2 ** (-(t - last) / HALF_LIFE_S)`` — recency and frequency in one
    scalar; regions are :data:`REGION_BYTES` wide.  Read and write heat are tracked separately so a
    recompression scavenger can find *write-cold but read-warm* data.
    """

    def __init__(self) -> None:
        #: region -> (heat, last update time), per op class
        self._write: Dict[int, tuple] = {}
        self._read: Dict[int, tuple] = {}
        self.max_region = -1
        self.touches = 0

    def region_of(self, lba: int) -> int:
        return lba // REGION_BYTES

    def touch(self, t: float, op: str, lba: int, pages: float) -> None:
        """Fold one request into its region's heat."""
        region = self.region_of(lba)
        table = self._read if op == "R" else self._write
        heat, last = table.get(region, (0.0, t))
        if t > last:
            heat *= 2.0 ** (-(t - last) / HALF_LIFE_S)
        table[region] = (heat + pages, max(t, last))
        if region > self.max_region:
            self.max_region = region
        self.touches += 1

    def snapshot(self, now: float, op: str = "W") -> Dict[int, float]:
        """All regions' heat decayed to ``now`` (regions ever touched)."""
        table = self._read if op == "R" else self._write
        return {
            r: heat * 2.0 ** (-(now - last) / HALF_LIFE_S) if now > last else heat
            for r, (heat, last) in table.items()
        }

    def hottest(
        self, now: float, n: int = 5, op: Optional[str] = None
    ) -> List[tuple]:
        """Top-``n`` ``(region, heat)`` pairs at ``now``, hottest first
        (ties by region).

        With ``op`` (``"W"`` / ``"R"``) only that access class is
        scored; the default combines write and read heat.
        """
        if op is None:
            w, r = self.snapshot(now, "W"), self.snapshot(now, "R")
            scored = [
                (reg, w.get(reg, 0.0) + r.get(reg, 0.0)) for reg in w.keys() | r.keys()
            ]
        else:
            scored = self.snapshot(now, op).items()
        return heapq.nsmallest(n, scored, key=lambda rv: (-rv[1], rv[0]))


class DeviceHealth:
    """Collects SMART / space / GC / heat introspection for one device."""

    def __init__(self) -> None:
        self.heat = TemperatureMap()
        self.episodes: Deque[GcEpisode] = deque(maxlen=MAX_EPISODES)
        self.episodes_total = 0
        self.episodes_by_trigger: Dict[str, int] = {}
        self.moved_bytes_total = 0
        self.reclaimed_bytes_total = 0
        self.device = None
        self.sim = None

    # ------------------------------------------------------------------
    # stack wiring
    # ------------------------------------------------------------------
    def bind_device(self, device) -> None:
        """Attach to ``device``: heat feed + GC/retirement episodes."""
        self.device = device
        self.sim = device.sim
        device.observers["health"] = self
        device.monitor.events.subscribe("record", self._note_access)
        for ftl in ftls_of(device.backend):
            ftl.events.subscribe("gc", self._note_gc)
            ftl.events.subscribe("retire", self._note_retire)

    # ------------------------------------------------------------------
    # handlers (record-only: never schedule simulation events)
    # ------------------------------------------------------------------
    def _note_access(self, t, op, lba, pages) -> None:
        if lba is None:
            return
        self.heat.touch(t, op, lba, pages)

    def _note(self, episode: GcEpisode) -> None:
        self.episodes.append(episode)
        self.episodes_total += 1
        self.episodes_by_trigger[episode.trigger] = (
            self.episodes_by_trigger.get(episode.trigger, 0) + 1
        )
        self.moved_bytes_total += episode.moved_bytes
        self.reclaimed_bytes_total += episode.reclaimed_bytes

    def _note_gc(self, ftl, victim: int, moved: int, reclaimed: int) -> None:
        trigger = ftl.gc_trigger
        reason, stream = ("unknown", 0) if trigger is None else trigger
        block_bytes = ftl.geometry.block_bytes
        self._note(
            GcEpisode(
                t=self.sim.now if self.sim is not None else 0.0,
                victim_block=victim,
                moved_bytes=moved,
                valid_pages=math.ceil(moved / ftl.geometry.page_size),
                reclaimed_bytes=reclaimed,
                efficiency=reclaimed / block_bytes if block_bytes else 0.0,
                erase_count=ftl.collector.stats.erase_counts.get(victim, 0),
                trigger=reason,
                stream=stream,
            )
        )

    def _note_retire(self, ftl, block_id: int, moved: int) -> None:
        self._note(
            GcEpisode(
                t=self.sim.now if self.sim is not None else 0.0,
                victim_block=block_id,
                moved_bytes=moved,
                valid_pages=math.ceil(moved / ftl.geometry.page_size),
                reclaimed_bytes=0,
                efficiency=0.0,
                erase_count=ftl.collector.stats.erase_counts.get(block_id, 0),
                trigger="retire",
                stream=-1,
            )
        )

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def smart(self, observed_seconds: Optional[float] = None) -> SmartSnapshot:
        """SMART snapshot at the current simulated instant."""
        if self.device is None:
            raise RuntimeError("DeviceHealth is not bound to a device")
        horizon = (
            observed_seconds
            if observed_seconds is not None
            else (self.sim.now if self.sim is not None else 0.0)
        )
        return smart_snapshot(self.device, horizon, CELL_TYPE)

    def waterfall(self) -> SpaceWaterfall:
        """Space-efficiency waterfall at the current instant."""
        if self.device is None:
            raise RuntimeError("DeviceHealth is not bound to a device")
        return space_waterfall(self.device)

    def gc_table(self, last: int = 8) -> str:
        """The newest ``last`` GC episodes as an aligned text table."""
        if self.episodes_total:
            triggers = ", ".join(
                f"{k}={v}" for k, v in sorted(self.episodes_by_trigger.items())
            )
            header = f"GC episode audit ({self.episodes_total} episodes: {triggers})"
        else:
            header = "GC episode audit (no episodes)"
        lines = [header]
        if self.episodes:
            lines.append(
                f"  {'t':>9}  {'victim':>6}  {'pages':>5}  "
                f"{'moved':>10}  {'reclaimed':>10}  {'eff':>5}  trigger"
            )
            for ep in list(self.episodes)[-last:]:
                lines.append(
                    f"  {ep.t:9.4f}  {ep.victim_block:6d}  "
                    f"{ep.valid_pages:5d}  {_human(ep.moved_bytes):>10}  "
                    f"{_human(ep.reclaimed_bytes):>10}  "
                    f"{ep.efficiency:5.2f}  {ep.trigger}"
                )
        return "\n".join(lines)

    def render(
        self, observed_seconds: Optional[float] = None, width: int = 60
    ) -> str:
        """The full health exhibit: SMART + waterfall + GC + heatmap."""
        now = self.sim.now if self.sim is not None else 0.0
        parts = [
            render_smart(self.smart(observed_seconds)),
            "",
            render_waterfall(self.waterfall(), width=width),
            "",
            self.gc_table(),
        ]
        scrubber = self.device.observers.get("scrubber")
        if scrubber is not None:
            parts += ["", scrubber.audit_table()]
        parts += ["", render_heatmap(self.heat, now, width=width)]
        return "\n".join(parts)

    def to_dict(
        self, observed_seconds: Optional[float] = None, last_episodes: int = 64
    ) -> Dict[str, object]:
        """JSON-ready health dump (the ``--health-dump`` payload).

        Verifies the space waterfall's conservation invariant first, so
        a dumped ``health.json`` is by construction self-consistent.
        """
        smart = self.smart(observed_seconds)
        wf = self.waterfall()
        wf.verify()
        now = self.sim.now if self.sim is not None else 0.0
        lifetime = smart.projected_lifetime_seconds
        scrubber = self.device.observers.get("scrubber")
        extra: Dict[str, object] = (
            {"scrub": scrubber.to_dict()} if scrubber is not None else {}
        )
        return {
            **extra,
            "smart": {
                "cell_type": smart.cell_type,
                "pe_limit": smart.pe_limit,
                "observed_seconds": smart.observed_seconds,
                "total_erases": smart.total_erases,
                "wear_p50": smart.wear_p50,
                "wear_p95": smart.wear_p95,
                "wear_max": smart.wear_max,
                "wear_fraction": smart.wear_fraction,
                "erase_histogram": {
                    str(k): v for k, v in sorted(smart.erase_histogram.items())
                },
                "spare_blocks": smart.spare_blocks,
                "spare_bytes": smart.spare_bytes,
                "retired_blocks": smart.retired_blocks,
                "retired_bytes": smart.retired_bytes,
                "utilization": smart.utilization,
                "wa_split": smart.wa_split(),
                "write_amplification": smart.write_amplification,
                "gc_collections": smart.gc_collections,
                "gc_efficiency": smart.gc_efficiency,
                "projected_lifetime_seconds": (
                    None if lifetime == float("inf") else lifetime
                ),
                "drive_writes_per_day": smart.drive_writes_per_day,
            },
            "space": {
                "stages": [
                    {"name": s.name, "delta": s.delta,
                     "cumulative": s.cumulative}
                    for s in wf.stages()
                ],
                "logical_bytes": wf.logical_bytes,
                "payload_bytes": wf.payload_bytes,
                "slack_bytes": wf.slack_bytes,
                "slack_by_class": {
                    str(k): v for k, v in sorted(wf.slack_by_class.items())
                },
                "free_slot_bytes": wf.free_slot_bytes,
                "physical_bytes": wf.physical_bytes,
                "retired_bytes": wf.retired_bytes,
                "effective_physical_bytes": wf.effective_physical_bytes,
                "ftl_live_bytes": wf.ftl_live_bytes,
                "meta_live_bytes": wf.meta_live_bytes,
                "ftl_residual_bytes": wf.ftl_residual_bytes,
                "realized_ratio": wf.realized_ratio,
            },
            "gc_episodes": [
                {
                    "t": ep.t,
                    "victim_block": ep.victim_block,
                    "moved_bytes": ep.moved_bytes,
                    "valid_pages": ep.valid_pages,
                    "reclaimed_bytes": ep.reclaimed_bytes,
                    "efficiency": ep.efficiency,
                    "erase_count": ep.erase_count,
                    "trigger": ep.trigger,
                    "stream": ep.stream,
                }
                for ep in list(self.episodes)[-last_episodes:]
            ],
            "gc_totals": {
                "episodes": self.episodes_total,
                "by_trigger": dict(self.episodes_by_trigger),
                "moved_bytes": self.moved_bytes_total,
                "reclaimed_bytes": self.reclaimed_bytes_total,
            },
            "heat": {
                "region_bytes": REGION_BYTES,
                "half_life": HALF_LIFE_S,
                "touches": self.heat.touches,
                "write": {
                    str(r): h
                    for r, h in sorted(self.heat.snapshot(now, "W").items())
                },
                "read": {
                    str(r): h
                    for r, h in sorted(self.heat.snapshot(now, "R").items())
                },
            },
        }


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
def render_smart(snap: SmartSnapshot) -> str:
    """The SMART page as an aligned text panel."""
    life = snap.projected_lifetime_seconds
    life_s = "inf" if life == float("inf") else f"{life:.0f} s"
    split = snap.wa_split()
    total = max(1, sum(split.values()))
    split_s = "  ".join(
        f"{k}={_human(v)} ({100.0 * v / total:.1f}%)"
        for k, v in split.items()
    )
    hist = "  ".join(
        f"{k}x:{v}" for k, v in sorted(snap.erase_histogram.items())
    )
    return "\n".join(
        [
            f"SMART ({snap.cell_type}, PE limit {snap.pe_limit}) "
            f"over {snap.observed_seconds:.2f} s",
            f"  wear        p50={snap.wear_p50:.1f}  p95={snap.wear_p95:.1f}"
            f"  max={snap.wear_max}  "
            f"({100.0 * snap.wear_fraction:.4f}% of PE budget)",
            f"  erase hist  {hist if hist else '(no erases)'}",
            f"  capacity    spare={snap.spare_blocks} blocks "
            f"({_human(snap.spare_bytes)})  retired={snap.retired_blocks} "
            f"blocks ({_human(snap.retired_bytes)})  "
            f"utilization={100.0 * snap.utilization:.1f}%",
            f"  WA {snap.write_amplification:.4f}  {split_s}",
            f"  GC          {snap.gc_collections} collections, "
            f"efficiency {snap.gc_efficiency:.3f} "
            f"(reclaimed {_human(snap.gc_reclaimed_bytes)})",
            f"  lifetime    {life_s}  DWPD {snap.drive_writes_per_day:.2f}",
        ]
    )


def render_waterfall(wf: SpaceWaterfall, width: int = 60) -> str:
    """The space waterfall as an ASCII bar panel.

    Verifies the conservation invariant first — the panel's
    "conservation verified" claim is earned, not asserted; a drifted
    counter raises :class:`~repro.flash.introspect.SpaceAccountingError`
    instead of rendering a lie.
    """
    wf.verify()
    stages = wf.stages()
    peak = max((s.cumulative for s in stages), default=1) or 1
    lines = [
        f"space waterfall (realized ratio {wf.realized_ratio:.3f}, "
        f"conservation verified)"
    ]
    for s in stages:
        bar = "█" * max(0, round(width * s.cumulative / peak))
        sign = "+" if s.delta >= 0 and s.name != "logical" else ""
        lines.append(
            f"  {s.name:>14} {sign}{_human(s.delta):>11} "
            f"→ {_human(s.cumulative):>11} |{bar}"
        )
    if not wf.ftl_exact:
        lines.append(
            f"  (array backend: FTL holds {_human(wf.ftl_residual_bytes)} "
            f"of parity/replica bytes beyond the slots)"
        )
    return "\n".join(lines)


def render_heatmap(
    heat: TemperatureMap, now: float, width: int = 64
) -> str:
    """The LBA-region temperature map as shaded ASCII rows."""
    n_regions = heat.max_region + 1
    if n_regions <= 0:
        return "LBA temperature map (no accesses recorded)"
    per_col = max(1, math.ceil(n_regions / width))
    ncols = math.ceil(n_regions / per_col)

    def row(op: str) -> str:
        snap = heat.snapshot(now, op)
        cols = [0.0] * ncols
        for region, h in snap.items():
            c = region // per_col
            if c < ncols:
                cols[c] = max(cols[c], h)
        peak = max(cols) if any(cols) else 0.0
        if peak <= 0:
            return " " * ncols
        out = []
        for v in cols:
            if v <= 0:
                out.append(HEAT_CHARS[0])
            else:
                # log-ish ramp: tiny residual heat still shows as ▁
                idx = 1 + int((len(HEAT_CHARS) - 2) * v / peak)
                out.append(HEAT_CHARS[min(idx, len(HEAT_CHARS) - 1)])
        return "".join(out)

    span = _human(per_col * REGION_BYTES)
    lines = [
        f"LBA temperature map ({n_regions} regions × "
        f"{_human(REGION_BYTES)}, {span}/column, "
        f"half-life {HALF_LIFE_S:g} s, t={now:.2f})",
        f"  write |{row('W')}|",
        f"  read  |{row('R')}|",
    ]
    top = heat.hottest(now, 3)
    if top:
        lines.append(
            "  hottest: "
            + ", ".join(
                f"region {r} (lba {r * REGION_BYTES}, heat {h:.1f})"
                for r, h in top
            )
        )
    return "\n".join(lines)


def dump_health_json(
    health: DeviceHealth, fp, observed_seconds: Optional[float] = None
) -> None:
    """Write the health dump as JSON to an open file object."""
    json.dump(health.to_dict(observed_seconds), fp, indent=2, sort_keys=True)
    fp.write("\n")
