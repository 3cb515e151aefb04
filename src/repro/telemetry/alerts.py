"""Multi-window SLO burn-rate alerting on the simulation clock.

The classic SRE burn-rate construction, made deterministic: a tenant
with an SLO has an **error budget** — the fraction of requests allowed
to violate it.  The *burn rate* over a window is the windowed violation
rate divided by that budget (1.0 = burning exactly the budget, 10.0 =
exhausting it ten times too fast).  Alerting on a single window is
either noisy (short window) or slow to clear (long window), so a
:class:`BurnRateEngine` fires only when **both** a fast and a slow
window exceed the fire threshold, and clears (with hysteresis) only
when both fall below the clear threshold — the multi-window,
multi-burn-rate pattern.

Everything runs on windowed *cumulative counters* ``(t, completed,
slo_violations)`` observed on the simulation clock — normally scraped
by a :class:`~repro.telemetry.timeseries.TimeSeriesSampler` tick via
:meth:`BurnRateEngine.attach` — so a seeded replay fires and clears the
same alerts at the same virtual instants every run.  No wall-clock
anywhere.

:func:`render_alert_timeline` draws the per-tenant alert state over
time as an ASCII row (``#`` firing, ``.`` quiet), aligned with the
dashboard's sparkline time range.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "AlertEvent",
    "TenantBurnState",
    "BurnRateEngine",
    "render_alert_timeline",
]


# The multi-window burn-rate rule.  An alert fires when both the
# FAST_WINDOW and SLOW_WINDOW burn rates (seconds) reach FIRE_THRESHOLD;
# a firing alert clears when both drop below CLEAR_THRESHOLD.  BUDGET is
# the error budget as a violation *fraction* (0.05 = 5 % of requests may
# miss their SLO).  Windows with fewer than MIN_SAMPLES completed
# requests burn at 0.0 -- too little data to page on.
FAST_WINDOW = 0.5
SLOW_WINDOW = 2.5
BUDGET = 0.05
FIRE_THRESHOLD = 2.0
CLEAR_THRESHOLD = 0.5
MIN_SAMPLES = 5


@dataclass(frozen=True)
class AlertEvent:
    """One alert transition on the simulation clock."""

    tenant: str
    #: ``"fire"`` or ``"clear"``
    kind: str
    t: float
    fast_burn: float
    slow_burn: float


@dataclass
class TenantBurnState:
    """Live burn-rate state of one SLO'd tenant."""

    tenant: str
    #: cumulative ``(t, completed, slo_violations)`` observations
    samples: Deque[Tuple[float, int, int]] = field(default_factory=deque)
    fast_burn: float = 0.0
    slow_burn: float = 0.0
    firing: bool = False
    events: List[AlertEvent] = field(default_factory=list)


class BurnRateEngine:
    """Evaluates the burn-rate rule per tenant from cumulative counters.

    Drive it either directly with :meth:`observe` (unit tests, custom
    loops) or by :meth:`attach`-ing it to a
    :class:`~repro.telemetry.timeseries.TimeSeriesSampler` bound to a
    cluster — every sampler tick then observes each SLO'd tenant's
    scheduler counters and exports ``alert.firing`` /
    ``alert.fast_burn`` / ``alert.slow_burn`` series (``tenant`` label)
    plus fire/clear markers on the ``alerts`` channel.
    """

    def __init__(self) -> None:
        self.states: Dict[str, TenantBurnState] = {}
        self.events: List[AlertEvent] = []
        self._sampler = None

    # ------------------------------------------------------------------
    def observe(
        self, tenant: str, t: float, completed: int, violations: int
    ) -> Optional[AlertEvent]:
        """Feed one cumulative observation; returns the transition, if any.

        A repeated observation at the same ``t`` replaces the previous
        one (idempotent within a tick), so the engine is safe to scrape
        from several collectors.
        """
        st = self.states.get(tenant)
        if st is None:
            st = self.states[tenant] = TenantBurnState(tenant)
        samples = st.samples
        if samples and samples[-1][0] == t:
            samples[-1] = (t, completed, violations)
        else:
            samples.append((t, completed, violations))
        # Keep exactly one sample at or before the slow-window horizon:
        # it is the baseline the slow burn subtracts against.
        cutoff = t - SLOW_WINDOW
        while len(samples) >= 2 and samples[1][0] <= cutoff:
            samples.popleft()
        st.fast_burn = self._window_burn(st, t, FAST_WINDOW)
        st.slow_burn = self._window_burn(st, t, SLOW_WINDOW)
        event: Optional[AlertEvent] = None
        if (not st.firing
                and st.fast_burn >= FIRE_THRESHOLD
                and st.slow_burn >= FIRE_THRESHOLD):
            st.firing = True
            event = AlertEvent(tenant, "fire", t, st.fast_burn, st.slow_burn)
        elif (st.firing
                and st.fast_burn < CLEAR_THRESHOLD
                and st.slow_burn < CLEAR_THRESHOLD):
            st.firing = False
            event = AlertEvent(tenant, "clear", t, st.fast_burn, st.slow_burn)
        if event is not None:
            st.events.append(event)
            self.events.append(event)
            if self._sampler is not None:
                self._sampler.mark(
                    "alerts", f"{tenant}:{event.kind}", t=t
                )
        return event

    def _window_burn(
        self, st: TenantBurnState, t: float, window: float
    ) -> float:
        """Burn rate over ``[t - window, t]`` from cumulative counters."""
        horizon = t - window
        baseline = st.samples[0]
        for sample in st.samples:
            if sample[0] <= horizon:
                baseline = sample
            else:
                break
        latest = st.samples[-1]
        dc = latest[1] - baseline[1]
        if dc < MIN_SAMPLES:
            return 0.0
        dv = latest[2] - baseline[2]
        return (dv / dc) / BUDGET

    # ------------------------------------------------------------------
    @property
    def firing(self) -> List[str]:
        """Tenants currently firing, in name order."""
        return sorted(n for n, st in self.states.items() if st.firing)

    def attach(self, sampler, scheduler) -> None:
        """Ride a sampler's tick over a cluster's QoS scheduler.

        Registers the ``alert.*`` series families; the first one's
        scrape performs the per-tick observation for every tenant with
        an SLO.  Call before ``sampler.start()``.
        """
        self._sampler = sampler
        tenants = scheduler.tenants

        def _observe_all() -> Dict[str, float]:
            t = sampler.sim.now if sampler.sim is not None else 0.0
            out: Dict[str, float] = {}
            for name, st in tenants.items():
                if st.spec.slo is None:
                    continue
                self.observe(
                    name, t, st.stats.completed, st.stats.slo_violations
                )
                out[name] = 1.0 if self.states[name].firing else 0.0
            return out

        sampler.register_multi("alert.firing", _observe_all,
                               label_key="tenant")
        sampler.register_multi(
            "alert.fast_burn",
            lambda: {n: s.fast_burn for n, s in self.states.items()},
            label_key="tenant",
        )
        sampler.register_multi(
            "alert.slow_burn",
            lambda: {n: s.slow_burn for n, s in self.states.items()},
            label_key="tenant",
        )


# ----------------------------------------------------------------------
def render_alert_timeline(
    engine: BurnRateEngine,
    t0: float,
    t1: float,
    width: int = 60,
) -> str:
    """Per-tenant alert-state rows over ``[t0, t1]``.

    ``#`` marks columns where the alert was firing, ``.`` quiet time;
    the transitions come from the engine's recorded events, so a
    fire/clear pair between two samples still shows.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1: {width!r}")
    lines: List[str] = [
        f"alerts: {len(engine.events)} transitions, "
        f"{len(engine.firing)} firing"
    ]
    span = t1 - t0
    label_w = max(
        (len(n) for n in engine.states), default=6
    ) + 2
    for tenant in sorted(engine.states):
        st = engine.states[tenant]
        row = ["."] * width
        on = False
        start_col = 0
        segments: List[Tuple[int, int]] = []
        for ev in st.events:
            col = (
                int((ev.t - t0) / span * (width - 1)) if span > 0 else 0
            )
            col = min(max(col, 0), width - 1)
            if ev.kind == "fire" and not on:
                on, start_col = True, col
            elif ev.kind == "clear" and on:
                on = False
                segments.append((start_col, col))
        if on:
            segments.append((start_col, width - 1))
        for lo, hi in segments:
            for c in range(lo, hi + 1):
                row[c] = "#"
        n_fires = sum(1 for ev in st.events if ev.kind == "fire")
        state = "FIRING" if st.firing else "ok"
        lines.append(
            f"{tenant:<{label_w}}{''.join(row)}  "
            f"{state:<7} fires {n_fires}  "
            f"burn f {st.fast_burn:.2f} / s {st.slow_burn:.2f}"
        )
    return "\n".join(lines)
