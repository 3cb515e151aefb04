"""Trace replay driver: one scheme, one trace, one backend → results.

This is the engine behind every results figure (Figs 8-12).  It owns the
plumbing the paper's testbed provided physically: device construction
(single SSD or five-SSD RAIS5), address folding onto the scaled-down
simulated device, deterministic content assignment, and the replay loop
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.compression.costmodel import CodecCostModel
from repro.core.config import EDCConfig
from repro.core.policy import IntensityBand
from repro.core.replay import TraceReplayer
from repro.flash.geometry import NandGeometry, x25e_like
from repro.flash.introspect import write_amplification
from repro.flash.raid import RAIS5
from repro.flash.scrub import MediaScrubber, ScrubConfig
from repro.flash.ssd import SimulatedSSD
from repro.bench.schemes import build_device
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator
from repro.traces.model import Trace

__all__ = [
    "ReplayConfig", "ExperimentResult", "Stack", "build_stack", "replay",
    "replay_all_schemes",
]

#: SSDs in the RAIS5 array: the paper's testbed has five.
N_DEVICES = 5


@dataclass(frozen=True)
class ReplayConfig:
    """Environment shared by every scheme in one experiment.

    Attributes
    ----------
    backend:
        ``"ssd"`` for a single device (Fig 10) or ``"rais5"`` for the
        paper's array of :data:`N_DEVICES` SSDs (Fig 11).
    capacity_mb:
        Raw capacity per simulated SSD.
    fold_fraction:
        Trace addresses are folded onto this fraction of the backend's
        logical capacity, so overwrites recur and GC is exercised.
    pool_blocks / content_seed:
        Content-population parameters (SDGen substitute; the mix is
        always :data:`~repro.sdgen.datasets.ENTERPRISE_MIX`).
    """

    backend: str = "ssd"
    capacity_mb: int = 128
    fold_fraction: float = 0.8
    pool_blocks: int = 512
    content_seed: int = 5
    device_config: EDCConfig = field(default_factory=EDCConfig)

    def __post_init__(self) -> None:
        if self.backend not in ("ssd", "rais5"):
            raise ValueError(f"backend must be 'ssd' or 'rais5': {self.backend!r}")
        if not 0 < self.fold_fraction <= 1:
            raise ValueError(f"fold_fraction must be in (0,1]: {self.fold_fraction!r}")

    def geometry(self) -> NandGeometry:
        return x25e_like(self.capacity_mb)

    def fold_bytes(self, block_size: int) -> int:
        """Logical address-space bytes the trace is folded onto."""
        logical = self.geometry().logical_bytes
        if self.backend == "rais5":
            logical *= N_DEVICES - 1  # data devices
        folded = int(logical * self.fold_fraction)
        return max(block_size, folded // block_size * block_size)

    def fold(self, trace: Trace) -> Trace:
        """``trace`` with its addresses folded onto the simulated device."""
        block = self.device_config.block_size
        return trace.scaled_addresses(self.fold_bytes(block), block)


@dataclass(frozen=True)
class ExperimentResult:
    """Everything the figures need from one (scheme, trace) replay."""

    scheme: str
    trace_name: str
    n_requests: int
    compression_ratio: float
    payload_ratio: float
    space_saving: float
    mean_response: float
    mean_write_response: float
    mean_read_response: float
    p95_response: float
    p99_response: float
    write_amplification: float
    gc_stall_time: float
    codec_shares: Dict[str, float]
    skipped_intensity: int
    skipped_incompressible: int
    merged_runs: int

    @property
    def composite(self) -> float:
        """The paper's ratio/response-time benefit metric (Fig 9)."""
        if self.mean_response <= 0:
            return 0.0
        return self.compression_ratio / self.mean_response


class Stack(NamedTuple):
    """What :func:`build_stack` stands up; ``devices`` is ``None`` on a
    single SSD and the member list on an array."""

    device: object
    backend: object
    devices: Optional[List[SimulatedSSD]]

    @property
    def members(self) -> List[SimulatedSSD]:
        """Every SSD of the stack: the array members, or the one device."""
        return self.devices if self.devices is not None else [self.backend]


def build_stack(
    sim: Simulator,
    cfg: ReplayConfig,
    scheme: str,
    name: str = "ssd0",
    recovery=None,
    fault_plan=None,
    bands: Optional[Sequence[IntensityBand]] = None,
    cost_model: Optional[CodecCostModel] = None,
) -> Stack:
    """Backend + content + EDC device for ``cfg``, with ``fault_plan`` armed.

    The one assembly of the testbed: :func:`replay`, every episode of
    the crash harness and every shard of a fleet are built here, so a
    fault plan arms the same machinery (:meth:`FaultPlan.arm
    <repro.faults.FaultPlan.arm>`) on all of them.  ``name`` names a
    single SSD (a fleet's ``shard<i>``); array members are ``ssd<i>``.
    Scheduled device failures are the caller's to arm
    (``fault_plan.schedule_failures``): they may name SSDs of other
    stacks.
    """
    geo = cfg.geometry()
    devices = None
    if cfg.backend == "ssd":
        backend = SimulatedSSD(sim, name=name, geometry=geo)
    else:
        devices = [
            SimulatedSSD(sim, name=f"ssd{i}", geometry=geo) for i in range(N_DEVICES)
        ]
        backend = RAIS5(devices)
    content = ContentStore(
        ENTERPRISE_MIX,
        block_size=cfg.device_config.block_size,
        pool_blocks=cfg.pool_blocks,
        seed=cfg.content_seed,
    )
    if fault_plan is not None:
        fault_plan.arm(sim, backend)
    device = build_device(
        sim, scheme, backend, content,
        config=cfg.device_config, bands=bands, cost_model=cost_model,
        recovery=recovery,
    )
    return Stack(device, backend, devices)


def replay(
    trace: Trace,
    scheme: str,
    cfg: Optional[ReplayConfig] = None,
    bands: Optional[Sequence[IntensityBand]] = None,
    cost_model: Optional[CodecCostModel] = None,
    telemetry=None,
    sampler=None,
    auditor=None,
    fault_plan=None,
    on_built=None,
    recovery=None,
    health=None,
    scrub=None,
) -> ExperimentResult:
    """Replay ``trace`` under ``scheme`` and collect the result record.

    ``telemetry`` optionally attaches a
    :class:`~repro.telemetry.Telemetry`.  Because this function owns its
    simulator, a telemetry object built on any simulator is re-keyed
    onto the replay's clock before the run; after the call its tracer,
    metrics and per-layer breakdown describe this replay.

    ``sampler`` optionally attaches a
    :class:`~repro.telemetry.TimeSeriesSampler`: it is bound to the
    replay's simulator and device (standard metric vocabulary) and
    started before the first request, so after the call its ring series
    hold the replay's time-resolved view.  Telemetry and sampler
    compose — one replay feeds both.

    ``auditor`` optionally attaches a
    :class:`~repro.telemetry.audit.DecisionAuditor`: every write
    decision of the replay (inputs, chosen codec, size class,
    shadow-policy counterfactuals) lands in its aggregates and
    reservoir.  Auditing is side-effect-free — the replayed results are
    bit-identical with or without it — and composes with ``telemetry``
    and ``sampler`` over the same single replay.

    ``fault_plan`` optionally attaches a
    :class:`~repro.faults.FaultPlan` to the built backend (per-device
    injectors, scheduled failures, auto-rebuild wiring).  ``on_built``
    is called with ``(sim, device, backend, devices)`` after
    construction but before the replay starts — where the chaos harness
    subscribes its own observers.

    ``recovery`` optionally attaches a
    :class:`~repro.recovery.DurableMetadataManager`: mapping metadata is
    journaled and checkpointed in-band during the replay, so its write
    amplification and device time include the durability overhead.
    ``None`` (the default) keeps the replay bit-identical to the seed.

    ``health`` optionally attaches a
    :class:`~repro.telemetry.devhealth.DeviceHealth`: SMART snapshots,
    the space-efficiency waterfall, the per-GC-episode audit and the
    LBA temperature map become queryable after the run.  Health hooks
    only record — a replay with health attached is bit-identical
    (mapping/allocator digests) to one without.  Composes with every
    other instrument, in any attach order.

    ``scrub`` optionally arms an online media scrubber: a
    :class:`~repro.flash.scrub.ScrubConfig` builds a
    :class:`~repro.flash.scrub.MediaScrubber` over the device, started
    before the first request so latent errors injected by
    ``fault_plan`` are found and repaired *during* the replay.  Scrub
    I/O is charged through the normal read/write paths; ``None`` (the
    default) keeps the replay bit-identical to the seed.  Anything else
    raises :class:`TypeError`.
    """
    if scrub is not None and not isinstance(scrub, ScrubConfig):
        raise TypeError(f"scrub must be a ScrubConfig or None: {scrub!r}")
    cfg = cfg if cfg is not None else ReplayConfig()
    sim = Simulator()
    if telemetry is not None and telemetry.sim is not sim:
        # Re-key the telemetry clock onto this replay's simulator.
        telemetry.sim = sim
        telemetry.tracer.clock = lambda: sim.now
    stack = build_stack(
        sim, cfg, scheme, recovery=recovery, fault_plan=fault_plan,
        bands=bands, cost_model=cost_model,
    )
    device = stack.device
    if fault_plan is not None:
        fault_plan.schedule_failures(sim, stack.members)
    for observer in (telemetry, auditor, health):
        if observer is not None:
            observer.bind_device(device)
    if scrub is not None:
        MediaScrubber(sim, device, scrub).start()
    if sampler is not None:
        sampler.attach(sim, device)
        sampler.start()
    if on_built is not None:
        on_built(sim, device, stack.backend, stack.devices)
    # Each request is built folded as it arrives: the replay holds the
    # caller's trace and the requests in flight, not a folded copy.
    replayer = TraceReplayer(sim, device)
    replayer.schedule(trace, cfg.fold_bytes(device.config.block_size))
    replayer.run()

    # The members the run started with: one swapped out by a rebuild
    # still owns the traffic it served.
    wa = write_amplification([d.ftl for d in stack.members])
    gc_stall = sum(d.stats.gc_stall_time for d in stack.members)

    import numpy as np

    all_samples = np.concatenate(
        [device.write_latency.samples(), device.read_latency.samples()]
    )
    if all_samples.size:
        p95, p99 = (float(v) for v in np.percentile(all_samples, (95, 99)))
    else:
        p95 = p99 = 0.0
    return ExperimentResult(
        scheme=scheme,
        trace_name=trace.name,
        n_requests=len(trace),
        compression_ratio=device.stats.compression_ratio,
        payload_ratio=device.stats.payload_ratio,
        space_saving=device.stats.space_saving,
        mean_response=device.mean_response_time(),
        mean_write_response=device.write_latency.mean(),
        mean_read_response=device.read_latency.mean(),
        p95_response=p95,
        p99_response=p99,
        write_amplification=wa,
        gc_stall_time=gc_stall,
        codec_shares=device.stats.codec_shares(),
        skipped_intensity=device.stats.skipped_intensity,
        skipped_incompressible=device.stats.skipped_incompressible,
        merged_runs=device.stats.merged_runs,
    )


def replay_all_schemes(
    trace: Trace,
    cfg: Optional[ReplayConfig] = None,
    schemes: Sequence[str] = ("Native", "Lzf", "Gzip", "Bzip2", "EDC"),
) -> Dict[str, ExperimentResult]:
    """Replay one trace under every scheme (the per-trace group of Figs 8-11)."""
    return {s: replay(trace, s, cfg) for s in schemes}
