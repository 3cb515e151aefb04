"""Per-tenant namespaces, admission control and QoS scheduling.

The cluster front-end serves many tenants over one shard fleet.  Each
tenant gets:

- a **namespace**: a disjoint region of the cluster's global logical
  address space (the :class:`~repro.cluster.routing.ClusterDistributer`
  folds tenant-local addresses into it);
- a **token bucket** bounding its admitted request rate (``rate_iops``
  requests/second sustained, ``burst`` extra on top) — ``rate_iops=None``
  admits everything immediately;
- a **latency SLO** the scheduler optimises for and the report grades
  against.

Admission is *work-conserving and order-preserving per tenant*: a
request that finds tokens available and no backlog is dispatched
synchronously in the caller's event — zero added simulated latency and
zero extra events, which is what makes a 1-tenant unlimited cluster
bit-identical to the bare device.  Throttled requests queue per tenant;
a drain event fires at the earliest token-availability instant and
arbitrates between backlogged tenants with an **earliest effective
deadline first** rule: each queued head's deadline is its arrival time
plus the tenant's SLO scaled down by its weight (tenants without an SLO
use a default slack), so tight-SLO and high-weight tenants are served
first as their deadlines close in.  Ties break on tenant order, keeping
the schedule fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import EventHandle, Simulator
from repro.sim.metrics import LatencyRecorder
from repro.traces.model import IORequest

__all__ = ["TokenBucket", "TenantSpec", "TenantStats", "TenantState",
           "QoSScheduler"]


class TokenBucket:
    """Continuous-refill token bucket on the simulation clock."""

    #: float tolerance shared by every token comparison.  :meth:`eta`
    #: returns the *exact* instant the deficit closes; without a common
    #: epsilon the drain event would fire there, see 0.999... tokens,
    #: refuse to dispatch, and re-arm infinitesimally later — forever.
    EPS = 1e-9

    def __init__(self, rate: float, burst: float = 1.0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate!r}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1 token: {burst!r}")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._t = 0.0

    def _refill(self, now: float) -> None:
        if now > self._t:
            self._tokens = min(self.burst, self._tokens + (now - self._t) * self.rate)
            self._t = now

    def available(self, now: float) -> float:
        """Tokens available at ``now``."""
        self._refill(now)
        return self._tokens

    def try_consume(self, now: float, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; ``False`` leaves the bucket as-is."""
        self._refill(now)
        if self._tokens + self.EPS < n:
            return False
        self._tokens = max(0.0, self._tokens - n)
        return True

    def eta(self, now: float, n: float = 1.0) -> float:
        """Earliest instant at which ``n`` tokens will be available."""
        self._refill(now)
        if self._tokens + self.EPS >= n:
            return now
        return now + (n - self._tokens) / self.rate


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's contract with the cluster.

    ``rate_iops=None`` disables admission throttling; ``slo=None``
    disables SLO grading (the scheduler then uses ``weight`` and the
    default slack for arbitration only).
    """

    name: str
    rate_iops: Optional[float] = None
    burst: float = 32.0
    weight: float = 1.0
    #: latency SLO in seconds (per-request completion target)
    slo: Optional[float] = None
    #: internal (cluster-owned) tenants carry background traffic such as
    #: replica rebuild; they are excluded from per-tenant fleet reports.
    internal: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.rate_iops is not None and self.rate_iops <= 0:
            raise ValueError(f"rate_iops must be positive: {self.rate_iops!r}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive: {self.weight!r}")
        if self.slo is not None and self.slo <= 0:
            raise ValueError(f"slo must be positive: {self.slo!r}")


@dataclass
class TenantStats:
    submitted: int = 0
    #: dispatched synchronously at arrival (tokens available, no backlog)
    admitted_direct: int = 0
    #: queued behind the token bucket at least briefly
    queued: int = 0
    completed: int = 0
    slo_violations: int = 0
    #: peak backlog length observed
    max_backlog: int = 0
    #: requests that failed permanently (quorum unreachable after the
    #: retry budget, or a device error with no surviving replica)
    unrecovered: int = 0


class TenantState:
    """Live per-tenant scheduling state inside the :class:`QoSScheduler`."""

    def __init__(self, spec: TenantSpec, index: int) -> None:
        self.spec = spec
        self.index = index
        self.bucket = (
            TokenBucket(spec.rate_iops, spec.burst)
            if spec.rate_iops is not None else None
        )
        #: (arrival_time, request) FIFO backlog
        self.backlog: Deque[Tuple[float, IORequest]] = deque()
        self.stats = TenantStats()
        self.latency = LatencyRecorder(f"tenant:{spec.name}")

    @property
    def name(self) -> str:
        return self.spec.name

    def can_dispatch(self, now: float) -> bool:
        return (
            self.bucket is None
            or self.bucket.available(now) + TokenBucket.EPS >= 1.0
        )

    def head_deadline(self, default_slack: float) -> float:
        """Effective deadline of the backlog head (EDF key)."""
        arrival, _req = self.backlog[0]
        slack = self.spec.slo if self.spec.slo is not None else default_slack
        return arrival + slack / self.spec.weight


class QoSScheduler:
    """Token-bucket admission + deadline-driven arbitration between tenants.

    ``dispatch`` is called as ``dispatch(state, request, arrival)`` —
    synchronously from :meth:`submit` when the tenant has tokens and no
    backlog, or from the drain event otherwise.  The downstream router
    calls :meth:`note_complete` when the request finishes; latency is
    measured from the original arrival, so admission queueing counts
    against the SLO exactly like device time does.
    """

    #: arbitration slack for tenants without an SLO (seconds)
    DEFAULT_SLACK = 0.050

    def __init__(
        self,
        sim: Simulator,
        tenants: Sequence[TenantSpec],
        dispatch: Callable[[TenantState, IORequest, float], None],
    ) -> None:
        if not tenants:
            raise ValueError("at least one tenant is required")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.sim = sim
        self.tenants: Dict[str, TenantState] = {
            spec.name: TenantState(spec, i) for i, spec in enumerate(tenants)
        }
        self._dispatch = dispatch
        #: per-tenant dispatch overrides (internal tenants route to their
        #: own sink, e.g. the replication manager's rebuild engine)
        self._sinks: Dict[str, Callable[[TenantState, IORequest, float], None]] = {}
        #: observational hook ``(state, request, now, eta)`` fired when a
        #: request misses direct admission; ``eta`` is the bucket's
        #: token-availability instant (``now`` for unthrottled tenants).
        #: Purely a tracing tap — it must never mutate scheduler state.
        self.on_queued: Optional[
            Callable[[TenantState, IORequest, float, float], None]
        ] = None
        self._drain_handle: Optional[EventHandle] = None
        self._drain_at = float("inf")

    # ------------------------------------------------------------------
    def add_tenant(
        self,
        spec: TenantSpec,
        sink: Optional[Callable[[TenantState, IORequest, float], None]] = None,
    ) -> TenantState:
        """Register a tenant after construction (e.g. an internal one).

        ``sink`` overrides the scheduler-wide dispatch callable for this
        tenant only; internal background producers (replica rebuild) use
        it to receive their own admitted requests while still competing
        for dispatch under the same token-bucket + EDF arbitration as
        foreground tenants.
        """
        if spec.name in self.tenants:
            raise ValueError(f"tenant {spec.name!r} already registered")
        st = TenantState(spec, len(self.tenants))
        self.tenants[spec.name] = st
        if sink is not None:
            self._sinks[spec.name] = sink
        return st

    def _sink_for(
        self, st: TenantState
    ) -> Callable[[TenantState, IORequest, float], None]:
        return self._sinks.get(st.name, self._dispatch)

    def state(self, name: str) -> TenantState:
        try:
            return self.tenants[name]
        except KeyError:
            raise KeyError(
                f"unknown tenant {name!r}; known: {sorted(self.tenants)}"
            ) from None

    @property
    def backlog(self) -> int:
        """Requests queued behind admission across all tenants."""
        return sum(len(st.backlog) for st in self.tenants.values())

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, name: str, request: IORequest) -> None:
        """Admit or queue one request for tenant ``name`` at ``sim.now``."""
        st = self.state(name)
        now = self.sim.now
        st.stats.submitted += 1
        if not st.backlog and (
            st.bucket is None or st.bucket.try_consume(now)
        ):
            st.stats.admitted_direct += 1
            self._sink_for(st)(st, request, now)
            return
        st.backlog.append((now, request))
        st.stats.queued += 1
        st.stats.max_backlog = max(st.stats.max_backlog, len(st.backlog))
        if self.on_queued is not None:
            # eta() only refills the bucket (idempotent), so asking for
            # it here cannot change when the drain event actually fires.
            eta = now if st.bucket is None else st.bucket.eta(now)
            self.on_queued(st, request, now, eta)
        self._arm()

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def _next_eta(self) -> float:
        """Earliest instant any backlogged tenant could dispatch."""
        now = self.sim.now
        eta = float("inf")
        for st in self.tenants.values():
            if not st.backlog:
                continue
            eta = min(eta, now if st.bucket is None else st.bucket.eta(now))
        return eta

    def _arm(self) -> None:
        eta = self._next_eta()
        if eta == float("inf"):
            return
        if self._drain_handle is not None and self._drain_at <= eta:
            return  # an earlier (or equal) drain is already pending
        if self._drain_handle is not None:
            self.sim.cancel(self._drain_handle)
        self._drain_at = eta
        self._drain_handle = self.sim.schedule_at(eta, self._drain)

    def _drain(self) -> None:
        self._drain_handle = None
        self._drain_at = float("inf")
        now = self.sim.now
        while True:
            ready: List[TenantState] = [
                st for st in self.tenants.values()
                if st.backlog and st.can_dispatch(now)
            ]
            if not ready:
                break
            st = min(
                ready,
                key=lambda s: (s.head_deadline(self.DEFAULT_SLACK), s.index),
            )
            arrival, request = st.backlog.popleft()
            if st.bucket is not None and not st.bucket.try_consume(now):
                raise AssertionError("can_dispatch lied about token availability")
            self._sink_for(st)(st, request, arrival)
        self._arm()

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def note_complete(self, st: TenantState, arrival: float) -> float:
        """Record one completed request; returns its end-to-end latency."""
        latency = self.sim.now - arrival
        st.latency.add(latency)
        st.stats.completed += 1
        if st.spec.slo is not None and latency > st.spec.slo:
            st.stats.slo_violations += 1
        return latency
