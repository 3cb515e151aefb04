"""Declarative, seeded fault plans and per-device injectors.

The reproduction's happy path shows *why* elastic compression wins; this
module supplies the pressure that shows it *surviving*.  A
:class:`FaultPlan` is a declarative description of everything that can
go wrong in a replay:

- **transient read failures** with a configurable per-attempt
  probability (``read_fault_prob``), optionally **wear-coupled**: the
  probability grows with the per-block P/E count of the blocks holding
  the extent (``wear_ber_per_pe``), tying reliability to the endurance
  bookkeeping the FTL and collector already do;
- **program failures** (``program_fault_prob``) that force the device
  to remap the written data and retire the bad block;
- **latency spikes** (``latency_spike_prob`` / ``latency_spike_s``)
  modelling internal housekeeping hiccups;
- **scheduled whole-device failures** (:class:`DeviceFailure`) at fixed
  simulation timestamps, the events a RAIS5 array must absorb;
- **scheduled power losses** (:class:`PowerLoss`): the whole *host*
  stops at an arbitrary simulated instant — every in-flight program,
  journal tail and write-back buffer content is gone.  Power losses are
  not injected by the per-device machinery here; the crash harness
  (:mod:`repro.bench.crash`) interprets them by cutting the simulation
  at ``at`` and driving recovery.

Determinism is non-negotiable: every injector derives its RNG stream
from ``seed`` and the device *name* (via CRC32, never ``hash()``), so a
replay under a fixed-seed plan is bit-for-bit reproducible, and an
**empty plan is exactly the baseline** — injectors that can never fire
draw no randomness that alters timing, and the layers above only take
error paths when a fault actually occurs.

The plan also centralises the recovery knobs the layers consult:
bounded exponential backoff for read retries
(``retry_backoff_s`` / ``retry_backoff_cap_s`` / ``max_read_retries``)
and the array rebuild cadence (``rebuild_delay_s`` /
``rebuild_batch_rows``).

Plans serialise to/from JSON (``python -m repro.bench chaos plan.json``
replays the canonical traces under one, ``python -m repro.bench crash
plan.json`` one that cuts power).
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.latent import LatentErrorModel, ReadDisturb, RetentionLoss

__all__ = [
    "FaultError",
    "ReadFaultError",
    "DeviceFailedError",
    "DeviceFailure",
    "PowerLoss",
    "RetentionLoss",
    "ReadDisturb",
    "FaultStats",
    "FaultInjector",
    "FaultPlan",
    "PLAN_SCHEMA",
]

#: current fault-plan serialisation schema; bump on incompatible change.
PLAN_SCHEMA = 1


class FaultError(RuntimeError):
    """Base class for injected-fault failures surfacing out of a device."""


class ReadFaultError(FaultError):
    """A read exhausted its retry budget without a clean transfer."""


class DeviceFailedError(FaultError):
    """The whole device is failed; no further I/O is possible."""


@dataclass(frozen=True)
class DeviceFailure:
    """One scheduled whole-device failure.

    ``at`` is an absolute simulation timestamp in seconds; ``device``
    names the :class:`~repro.flash.ssd.SimulatedSSD` (its ``name``
    attribute) that fails at that instant.
    """

    at: float
    device: str

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"failure time must be non-negative: {self.at!r}")
        if not self.device:
            raise ValueError("failure needs a device name")


@dataclass(frozen=True)
class PowerLoss:
    """One scheduled whole-host power cut at simulation time ``at``.

    Interpreted by the crash harness (:mod:`repro.bench.crash`): the
    simulation halts at ``at`` — in-flight device completions never
    happen, the journal's volatile tail and the write-back buffer are
    lost — and the device is rebuilt from its durable metadata.
    """

    at: float

    def __post_init__(self) -> None:
        if self.at <= 0:
            raise ValueError(f"power-loss time must be positive: {self.at!r}")


@dataclass
class FaultStats:
    """Typed counters for everything one injector did.

    These are the numbers the time-series sampler scrapes into the
    ``faults.*`` metric family and the chaos report summarises.
    """

    read_faults: int = 0
    read_retries: int = 0
    reads_recovered: int = 0
    reads_unrecovered: int = 0
    program_faults: int = 0
    blocks_retired: int = 0
    latency_spikes: int = 0
    device_failures: int = 0

    FIELDS = (
        "read_faults", "read_retries", "reads_recovered",
        "reads_unrecovered", "program_faults", "blocks_retired",
        "latency_spikes", "device_failures",
    )

    def merge(self, other: "FaultStats") -> None:
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}


class FaultInjector:
    """Per-device fault oracle: rolls the plan's dice for one device.

    The device model asks it three questions — "does this read attempt
    fail?", "does this program fail?", "how much extra latency?" — and
    reports what it then did (retries, retirements) into
    :attr:`stats`.  One injector per device keeps the random streams
    independent of device interleaving: the stream is seeded from
    ``(plan.seed, crc32(device name))``, so adding traffic on one device
    never perturbs another's faults.
    """

    def __init__(self, plan: "FaultPlan", name: str) -> None:
        self.plan = plan
        self.name = name
        self.rng = random.Random((plan.seed << 32) ^ zlib.crc32(name.encode()))
        self.stats = FaultStats()

    # ------------------------------------------------------------------
    # fault decisions
    # ------------------------------------------------------------------
    def roll_read_fault(self, wear: int = 0) -> bool:
        """Does one read *attempt* fail?  ``wear`` is the max P/E count
        of the blocks holding the target extent (wear-coupled BER)."""
        p = self.plan.read_fault_prob + self.plan.wear_ber_per_pe * wear
        if p <= 0.0:
            return False
        if self.rng.random() < min(p, 1.0):
            self.stats.read_faults += 1
            return True
        return False

    def roll_program_fault(self) -> bool:
        """Does this program operation fail (bad block)?"""
        p = self.plan.program_fault_prob
        if p <= 0.0:
            return False
        if self.rng.random() < min(p, 1.0):
            self.stats.program_faults += 1
            return True
        return False

    def latency_spike(self) -> float:
        """Extra service seconds injected into the current operation."""
        p = self.plan.latency_spike_prob
        if p <= 0.0 or self.plan.latency_spike_s <= 0.0:
            return 0.0
        if self.rng.random() < min(p, 1.0):
            self.stats.latency_spikes += 1
            return self.plan.latency_spike_s
        return 0.0

    # ------------------------------------------------------------------
    # recovery knobs
    # ------------------------------------------------------------------
    def backoff(self, attempt: int) -> float:
        """Bounded exponential backoff before retry ``attempt + 1``."""
        if attempt < 0:
            raise ValueError(f"attempt must be non-negative: {attempt!r}")
        return min(
            self.plan.retry_backoff_s * (2.0 ** attempt),
            self.plan.retry_backoff_cap_s,
        )

    @property
    def max_read_retries(self) -> int:
        return self.plan.max_read_retries


def _coerce_nested(value, cls, what: str):
    """Build ``cls`` from ``value`` with precise unknown-key errors.

    ``value`` may already be an instance of ``cls`` or a plain dict
    (the JSON form).  Anything else — including a dict with keys the
    dataclass does not define — is rejected with an error naming the
    offending keys and the known ones, so a typo in a plan file fails
    loudly instead of silently dropping a scheduled fault.
    """
    if isinstance(value, cls):
        return value
    if not isinstance(value, dict):
        raise ValueError(
            f"{what} must be a {cls.__name__} or mapping, got {type(value).__name__}"
        )
    known = {f.name for f in fields(cls)}
    unknown = set(value) - known
    if unknown:
        raise ValueError(
            f"unknown {what} keys {sorted(unknown)}; known: {sorted(known)}"
        )
    return cls(**value)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative description of the faults one replay injects."""

    #: serialisation schema version (see :data:`PLAN_SCHEMA`); plans
    #: written by a future incompatible format are rejected on load
    schema: int = PLAN_SCHEMA
    seed: int = 0
    #: per-attempt transient read-failure probability
    read_fault_prob: float = 0.0
    #: per-write program-failure (bad block) probability
    program_fault_prob: float = 0.0
    #: additional read-failure probability per P/E cycle of the most-worn
    #: block holding the target extent
    wear_ber_per_pe: float = 0.0
    #: probability of a latency spike on any operation
    latency_spike_prob: float = 0.0
    #: seconds added to the operation's service time when a spike fires
    latency_spike_s: float = 0.0
    #: read retries before the failure is reported upward
    max_read_retries: int = 4
    #: initial retry backoff (doubles per attempt, capped below)
    retry_backoff_s: float = 100e-6
    retry_backoff_cap_s: float = 10e-3
    #: scheduled whole-device failures
    device_failures: Tuple[DeviceFailure, ...] = ()
    #: scheduled whole-host power cuts (crash-consistency testing);
    #: interpreted by the crash harness, not the per-device injectors
    power_losses: Tuple[PowerLoss, ...] = ()
    #: delay between detecting a failed member and starting the rebuild
    rebuild_delay_s: float = 0.01
    #: stripe rows reconstructed per rebuild batch (rebuild I/O contends
    #: with foreground traffic batch by batch)
    rebuild_batch_rows: int = 8
    #: latent retention-loss model (charge leakage corrupting aged,
    #: worn blocks over time); ``None`` disables it
    retention: Optional[RetentionLoss] = None
    #: latent read-disturb model (heavy reads corrupting neighbouring
    #: blocks); ``None`` disables it
    read_disturb: Optional[ReadDisturb] = None

    def __post_init__(self) -> None:
        if self.schema != PLAN_SCHEMA:
            raise ValueError(
                f"unsupported fault-plan schema {self.schema!r}; "
                f"this build reads schema {PLAN_SCHEMA}"
            )
        for name in ("read_fault_prob", "program_fault_prob",
                     "latency_spike_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {v!r}")
        for name in ("wear_ber_per_pe", "latency_spike_s",
                     "retry_backoff_s", "retry_backoff_cap_s",
                     "rebuild_delay_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.max_read_retries < 0:
            raise ValueError("max_read_retries must be non-negative")
        if self.rebuild_batch_rows < 1:
            raise ValueError("rebuild_batch_rows must be >= 1")
        if self.retry_backoff_cap_s < self.retry_backoff_s:
            raise ValueError("retry_backoff_cap_s must be >= retry_backoff_s")
        object.__setattr__(
            self, "device_failures",
            tuple(
                _coerce_nested(f, DeviceFailure, "device-failure")
                for f in self.device_failures
            ),
        )
        object.__setattr__(
            self, "power_losses",
            tuple(
                _coerce_nested(p, PowerLoss, "power-loss")
                for p in self.power_losses
            ),
        )
        if self.retention is not None:
            object.__setattr__(
                self, "retention",
                _coerce_nested(self.retention, RetentionLoss, "retention"),
            )
        if self.read_disturb is not None:
            object.__setattr__(
                self, "read_disturb",
                _coerce_nested(self.read_disturb, ReadDisturb, "read-disturb"),
            )

    # ------------------------------------------------------------------
    # construction / serialisation
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, seed: int = 0) -> "FaultPlan":
        """A plan that injects nothing (replays are baseline-identical)."""
        return cls(seed=seed)

    @property
    def is_empty(self) -> bool:
        return (
            self.read_fault_prob == 0.0
            and self.program_fault_prob == 0.0
            and self.wear_ber_per_pe == 0.0
            and self.latency_spike_prob == 0.0
            and not self.device_failures
            and not self.power_losses
            and self.retention is None
            and self.read_disturb is None
        )

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault-plan keys {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fp:
            data = json.load(fp)
        if not isinstance(data, dict):
            raise ValueError(f"fault plan {path!r} must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> Dict[str, object]:
        d = asdict(self)
        d["device_failures"] = [asdict(f) for f in self.device_failures]
        d["power_losses"] = [asdict(p) for p in self.power_losses]
        d["retention"] = (
            None if self.retention is None else asdict(self.retention)
        )
        d["read_disturb"] = (
            None if self.read_disturb is None else asdict(self.read_disturb)
        )
        return d

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")

    def with_overrides(self, **kwargs) -> "FaultPlan":
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def injector_for(self, name: str) -> FaultInjector:
        """A fresh, deterministic injector for the device called ``name``."""
        return FaultInjector(self, name)

    def arm(self, sim, backend) -> List[FaultInjector]:
        """Install this plan on one built device stack.

        The one arming routine: ``backend`` is the storage backend (a
        single :class:`~repro.flash.ssd.SimulatedSSD` or a RAIS array).
        Every SSD serving it gets an injector (``ssd.injector``) and,
        when the plan has latent fields, a
        :class:`~repro.faults.latent.LatentErrorModel` (``ssd.latent``)
        with its retention tick.  On a RAIS5 backend the rebuild knobs
        are applied and a spare factory is installed so a detected
        member failure auto-rebuilds onto an SSD armed alike.  Returns
        the injectors (in device order); run totals read them off
        :func:`~repro.flash.introspect.ssds_served`, spares included.

        Scheduled :class:`DeviceFailure` events belong to the run's
        timeline, not to one stack (a fleet plan names shards of other
        stacks): :meth:`schedule_failures` arms them.
        """
        # Imported here: repro.flash imports this module's error types,
        # so a top-level import would be circular.
        from repro.flash.introspect import ssds_of
        from repro.flash.raid import RAIS5

        ssds = ssds_of(backend)
        for ssd in ssds:
            self._arm_ssd(sim, ssd)
        if isinstance(backend, RAIS5):
            backend.rebuild_delay_s = self.rebuild_delay_s
            backend.rebuild_batch_rows = self.rebuild_batch_rows
            backend.spare_factory = _spare_factory(self, sim, ssds[0])
        return [ssd.injector for ssd in ssds]

    def schedule_failures(self, sim, ssds: Sequence) -> None:
        """Arm every scheduled :class:`DeviceFailure` as a daemon event.

        ``ssds`` is every SSD a failure may name (array members, or all
        shards of a fleet); a failure naming none of them raises.
        """
        by_name = {ssd.name: ssd for ssd in ssds}
        for failure in self.device_failures:
            ssd = by_name.get(failure.device)
            if ssd is None:
                raise ValueError(
                    f"fault plan fails unknown device {failure.device!r}; "
                    f"have: {sorted(by_name)}"
                )
            sim.schedule_at(
                failure.at, (lambda s=ssd: s.fail_now()), daemon=True
            )

    def _arm_ssd(self, sim, ssd) -> None:
        """Give ``ssd`` its injector and, if planned, its latent model.

        With neither latent field set no model is built: no daemon, no
        RNG stream — the replay stays bit-identical.
        """
        ssd.injector = self.injector_for(ssd.name)
        if self.retention is None and self.read_disturb is None:
            return
        model = LatentErrorModel(
            self.seed, ssd.name, sim, ssd.ftl,
            retention=self.retention, read_disturb=self.read_disturb,
        )
        ssd.latent = model
        if self.retention is not None:
            model.tick_event = sim.every(
                self.retention.check_interval_s, model.tick
            )

    def total_stats(self, injectors: Sequence[FaultInjector]) -> FaultStats:
        total = FaultStats()
        for inj in injectors:
            total.merge(inj.stats)
        return total


def _spare_factory(plan, sim, template) -> Callable[[], object]:
    """Builds replacement SSDs matching the array member ``template``.

    Spares live under the same fault plan as the members they replace:
    each gets its own injector (and latent-error model, when the plan
    has one), so faults keep firing after a rebuild.
    """
    counter = {"n": 0}

    def make_spare():
        # Imported here: repro.flash.ssd imports this module's error
        # types, so a top-level import would be circular.
        from repro.flash.ssd import SimulatedSSD

        counter["n"] += 1
        spare = SimulatedSSD(
            sim,
            name=f"spare{counter['n']}",
            geometry=template.geometry,
            timing=template.timing,
            gc_enabled=template.gc_enabled,
        )
        plan._arm_ssd(sim, spare)
        return spare

    return make_spare
