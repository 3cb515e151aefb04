"""N-way replication: placement, quorum writes, failover reads, rebuild.

The placement and fault-tolerance layer of the cluster tier.  Every
:class:`~repro.cluster.routing.ClusterDistributer` issues every part
through its :class:`ReplicationManager`; a fleet without redundancy is
simply factor 1 (one target, quorum 1).  The routing contract:

- **Placement.**  Each LBA range is placed on the first ``factor``
  *distinct* shards of the ring's successor walk
  (:meth:`~repro.cluster.routing.HashRing.successors`).  The walk's
  stability property — removing a shard only deletes its own virtual
  nodes — means a shard failure changes a range's replica list by at
  most one appended name, which is what makes failover and rebuild
  targeting deterministic.  :attr:`ReplicationManager.members` is the
  one placement table: reads, writes, trims, the audit, ``owner_of``
  and the capacity balancer all resolve a range through
  :meth:`ReplicationManager.targets`, and a live-migration cutover
  swaps the source for the destination in it
  (:meth:`ReplicationManager.cutover`).
- **Quorum writes.**  A write part fans out to every live replica and
  acks once ``quorum`` of them (``one`` / ``majority`` / ``all`` of the
  configured factor, sloppily clamped to the live replica count)
  complete.  Every replica write flows through the normal device submit
  path, so replication cost lands honestly in each replica's write
  amplification, queue busy time and energy.
- **Failover reads.**  Reads route to the range's primary (first live
  replica) and fail over through the remaining replicas on error.
  Optional **hedged reads** fire a second replica read when the primary
  has been outstanding for the tenant's observed p95 latency.
- **Request robustness.**  A part whose quorum becomes unreachable (or
  whose read failed on every replica) is retried as a whole with
  bounded exponential backoff, limited by ``max_retries``, an optional
  end-to-end deadline measured from admission (*deadline propagation* —
  a retry that cannot finish inside the deadline is not attempted) and
  a per-tenant retry-budget token bucket.  A part that exhausts every
  path is surfaced through the tenant's ``unrecovered`` counter — never
  silently dropped.
- **Re-replication.**  When a shard is declared dead (see
  :mod:`repro.cluster.health`), the manager decommissions it from
  routing and rebuilds every under-replicated range from a surviving
  replica onto the next shard of the successor walk.  Rebuild copy I/O
  is admitted through an *internal* QoS tenant (``_rebuild``) with its
  own rate limit and a low weight, so recovery traffic is deprioritised
  under foreground load exactly like the paper's idle-window background
  work.

**Replica byte-exactness.**  Synthetic block content is a pure function
of ``(lba, version)``, so replicas hold byte-identical data iff their
per-block version counters agree.  The manager keeps the fleet-wide
**version oracle** (:attr:`ReplicationManager.versions`): one bump per
write *attempt* per covered block, mirrored on every live replica
because each of them receives every attempt.  Rebuild cannot use the
normal write path (it would bump the destination's counters
independently), so it goes through
:meth:`~repro.core.device.EDCBlockDevice.ingest_replica` with explicit
oracle versions captured at ingest time; blocks overwritten while a
rebuild is in flight are marked dirty and recopied, and at join the
destination's counters are floored to the oracle for the whole range.
:meth:`ReplicationManager.audit_durability` turns this into the chaos
harness's verdict: every acked block must be readable byte-exact from a
surviving replica (version check + stored-payload decode check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.bench.verdicts import grade
from repro.cluster.tenants import TenantSpec, TenantState, TokenBucket
from repro.faults.plan import DeviceFailedError
from repro.traces.model import IORequest, READ, WRITE

if TYPE_CHECKING:  # routing builds its manager from this module
    from repro.cluster.routing import ClusterDistributer

__all__ = [
    "quorum_need",
    "ReplicationConfig",
    "ReplicationStats",
    "DurabilityReport",
    "ReplicationManager",
]

#: name of the internal QoS tenant carrying rebuild copy traffic
REBUILD_TENANT = "_rebuild"


def quorum_need(quorum: str, factor: int) -> int:
    """Acks required out of ``factor`` replicas for quorum ``quorum``."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1: {factor!r}")
    if quorum == "one":
        return 1
    if quorum == "majority":
        return factor // 2 + 1
    if quorum == "all":
        return factor
    raise ValueError(
        f"unknown quorum {quorum!r}; expected 'one', 'majority' or 'all'"
    )


@dataclass(frozen=True)
class ReplicationConfig:
    """Knobs of the fault-tolerance layer (all deterministic)."""

    #: replicas per range (clamped to the ring size at placement time)
    factor: int = 2
    #: write-ack rule: ``one`` | ``majority`` | ``all`` (of :attr:`factor`)
    quorum: str = "majority"
    #: whole-part retries after the first attempt (0 disables retrying)
    max_retries: int = 3
    #: base of the bounded exponential backoff between attempts (seconds)
    retry_backoff_s: float = 500e-6
    #: backoff ceiling (seconds)
    retry_backoff_cap_s: float = 10e-3
    #: end-to-end deadline per part measured from admission; a retry that
    #: cannot start inside it is abandoned (``None`` disables)
    deadline_s: Optional[float] = None
    #: per-tenant retry budget (token bucket); ``None`` = unlimited
    retry_budget_iops: Optional[float] = 200.0
    retry_budget_burst: float = 20.0
    #: hedge a second replica read at the tenant's observed p95 latency
    hedge_reads: bool = False
    #: minimum completed samples before hedging activates
    hedge_min_samples: int = 50
    #: admission rate of the internal rebuild tenant; ``None`` = unthrottled
    rebuild_iops: Optional[float] = 4000.0
    #: EDF weight of rebuild traffic (low = deprioritised)
    rebuild_weight: float = 0.25
    #: recopy passes before a rebuild that cannot catch up is abandoned
    rebuild_max_passes: int = 8

    def __post_init__(self) -> None:
        quorum_need(self.quorum, self.factor)  # validates both
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries!r}")
        if self.retry_backoff_s <= 0 or self.retry_backoff_cap_s <= 0:
            raise ValueError("retry backoff values must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive: {self.deadline_s!r}")
        if self.hedge_min_samples < 1:
            raise ValueError(
                f"hedge_min_samples must be >= 1: {self.hedge_min_samples!r}"
            )
        if self.rebuild_max_passes < 1:
            raise ValueError(
                f"rebuild_max_passes must be >= 1: {self.rebuild_max_passes!r}"
            )


@dataclass
class ReplicationStats:
    """Everything the fault-tolerance layer did, for reports and metrics."""

    #: secondary-replica writes fanned out (beyond the primary copy)
    replica_writes: int = 0
    replica_bytes: int = 0
    #: write attempts whose quorum became unreachable
    quorum_failures: int = 0
    #: whole-part retry attempts issued (writes and reads)
    retries: int = 0
    retry_budget_exhausted: int = 0
    deadline_exhausted: int = 0
    #: reads rerouted to another replica after a primary/replica error
    failovers: int = 0
    hedged_reads: int = 0
    #: hedged reads that beat the original attempt
    hedge_wins: int = 0
    #: parts that exhausted every recovery path
    unrecovered_parts: int = 0
    #: shards declared dead (health monitor or manual)
    shards_failed: int = 0
    rebuilds_started: int = 0
    rebuilds_completed: int = 0
    rebuilds_abandoned: int = 0
    #: blocks actually re-replicated (one src read + one dst ingest each)
    rebuild_blocks: int = 0
    rebuild_bytes: int = 0
    #: blocks re-ingested from a peer replica by a media scrubber
    #: (see :meth:`ReplicationManager.replica_source_for`)
    scrub_repairs: int = 0
    scrub_repair_bytes: int = 0


@dataclass
class DurabilityReport:
    """Result of :meth:`ReplicationManager.audit_durability`.

    ``verdict`` implements the chaos harness's grading:

    - ``CORRUPTION`` — a surviving copy of an acked block failed the
      byte-exactness scrub;
    - ``DATA-LOSS`` — an acked block has no live replica holding it;
    - ``DEGRADED`` — everything acked is readable byte-exact but some
      range is still under-replicated (rebuild pending or abandoned);
    - ``RECOVERED`` — full redundancy restored, all acked data intact.
    """

    checked_blocks: int = 0
    #: acked global block numbers with no live replica mapping them
    lost: List[int] = field(default_factory=list)
    #: acked global block numbers whose surviving copy failed the scrub
    corrupt: List[int] = field(default_factory=list)
    #: range indices below their replication target
    under_replicated: List[int] = field(default_factory=list)
    rebuilds_pending: int = 0
    rebuilds_abandoned: int = 0

    @property
    def verdict(self) -> str:
        return grade(
            corruption=self.corrupt,
            data_loss=self.lost,
            degraded=(self.under_replicated or self.rebuilds_pending
                      or self.rebuilds_abandoned),
        )


class _RebuildJob:
    """One range's emergency re-replication onto a new shard."""

    __slots__ = ("ridx", "src", "dst", "dirty", "outstanding", "passes",
                 "cancelled")

    def __init__(self, ridx: int, src: str, dst: str) -> None:
        self.ridx = ridx
        self.src = src
        self.dst = dst
        #: global block numbers overwritten/trimmed since their last copy
        self.dirty: Set[int] = set()
        #: copy blocks in flight in the current pass
        self.outstanding = 0
        self.passes = 0
        self.cancelled = False


class ReplicationManager:
    """Replica placement, quorum fan-out and rebuild over one cluster."""

    def __init__(
        self,
        cluster: ClusterDistributer,
        config: Optional[ReplicationConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config if config is not None else ReplicationConfig()
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.stats = ReplicationStats()
        #: fleet-wide content-version oracle: global block -> write attempts
        self.versions: Dict[int, int] = {}
        #: the placement table: range index -> ordered live+joined
        #: replica list (primary first); initialised lazily from the
        #: successor walk at first touch
        self.members: Dict[int, List[str]] = {}
        #: ranges a live migration moved (see :meth:`cutover`)
        self.migrated: Set[int] = set()
        #: shards currently unreachable (device errors / health suspicion)
        self.down: Set[str] = set()
        #: shards declared dead (never come back)
        self.dead: Set[str] = set()
        self.rebuilding: Dict[int, _RebuildJob] = {}
        #: id(admitted rebuild read) -> (job, block) hand-off to the sink
        self._rebuild_tokens: Dict[int, Tuple[_RebuildJob, int]] = {}
        self._retry_buckets: Dict[str, Optional[TokenBucket]] = {}
        cluster.replication = self
        # The rebuild tenant is registered once: a manager replacing the
        # cluster's factor-1 default takes over its slot.
        cluster.scheduler.tenants.pop(REBUILD_TENANT, None)
        self._rebuild_state = cluster.scheduler.add_tenant(
            TenantSpec(
                REBUILD_TENANT,
                rate_iops=self.config.rebuild_iops,
                burst=64.0,
                weight=self.config.rebuild_weight,
                internal=True,
            ),
            sink=self._rebuild_admitted,
        )

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def desired_replicas(self, ridx: int) -> List[str]:
        """The range's ideal replica set on the current ring (primary
        first): where a range starts out and where rebuild looks for a
        new home."""
        c = self.cluster
        return c.ring.successors(ridx, min(self.config.factor, len(c.ring)))

    def targets(self, ridx: int) -> List[str]:
        """The shards holding ``ridx``: its live, fully-joined replicas,
        primary first.  The one answer to "who owns range r".  A
        rebuild or migration destination is *excluded* until it joins —
        receiving foreground writes as a member before then would
        desynchronise its content versions."""
        got = self.members.get(ridx)
        if got is None:
            got = self.members[ridx] = self.desired_replicas(ridx)
        return [n for n in got if n not in self.down]

    def cutover(self, ridx: int, src: str, dst: str) -> None:
        """A live migration of ``ridx`` completed its copy: ``dst`` takes
        ``src``'s slot in the placement table.  The range is recorded as
        migrated because the copy went through ``dst``'s normal write
        path, so its version counters no longer track the oracle."""
        mem = self.members[ridx]
        mem[mem.index(src)] = dst
        self.migrated.add(ridx)

    def trim_targets(self, ridx: int, part: IORequest) -> List[str]:
        """Shards that must drop a trimmed extent (every live replica);
        also dirties the blocks for any in-flight rebuild so the copy
        cannot resurrect them on the destination."""
        job = self.rebuilding.get(ridx)
        if job is not None and not job.cancelled:
            bs = self.cluster.block_size
            job.dirty.update(range(
                part.lba // bs, (part.lba + part.nbytes + bs - 1) // bs
            ))
        return self.targets(ridx)

    # ------------------------------------------------------------------
    # error intake
    # ------------------------------------------------------------------
    def note_shard_error(self, shard: str, exc: BaseException) -> None:
        """Passive failure detection: a whole-device failure takes the
        shard out of fan-out immediately (the health monitor follows up
        with the formal death declaration and rebuild)."""
        if isinstance(exc, DeviceFailedError):
            self.down.add(shard)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def issue_part(
        self,
        st: TenantState,
        request: IORequest,
        part: IORequest,
        arrival: float,
        finish: Callable[[IORequest, bool], None],
    ) -> None:
        """Route one shard part: the cluster's only part-issue path."""
        if part.is_write:
            self._issue_write(st, request, part, arrival, finish, 0)
        else:
            self._issue_read(st, request, part, arrival, finish, 0)

    def _issue_write(
        self,
        st: TenantState,
        request: IORequest,
        part: IORequest,
        arrival: float,
        finish: Callable[[IORequest, bool], None],
        attempt: int,
    ) -> None:
        c = self.cluster
        bs = c.block_size
        ridx = c.range_of(part.lba)
        covered = range(part.lba // bs, (part.lba + part.nbytes + bs - 1) // bs)
        targets = self.targets(ridx)
        if not targets:
            self._give_up(st, part, finish)
            return
        # One oracle bump per attempt per covered block.  Every live
        # replica receives every attempt (retries re-dispatch the whole
        # fan-out, never a partial one), so replica counters track the
        # oracle exactly — the core of replica byte-exactness.
        for blk in covered:
            self.versions[blk] = self.versions.get(blk, 0) + 1
        job = self.rebuilding.get(ridx)
        if job is not None and not job.cancelled:
            job.dirty.update(covered)
        window = c.dual_writes.get(ridx)
        if window is not None and window[1] not in targets:
            # Migration dual-write window: duplicate to the destination
            # (fire-and-forget, the migration's dirty tracking covers it).
            dst = window[1]
            dup = IORequest(part.time, part.op, part.lba, part.nbytes)
            c.stats.dual_writes += 1
            c.stats.dual_write_bytes += part.nbytes
            if c.on_dual_write is not None:
                c.on_dual_write(list(covered))
            if self.tracer is not None:
                self.tracer.dual_write_issued(ridx, dup, dst)
            c.shards[dst].submit(dup)
        need = min(quorum_need(self.config.quorum, self.config.factor),
                   len(targets))
        state = {"acks": 0, "outstanding": len(targets), "done": False}
        if attempt == 0 and self.tracer is not None:
            self.tracer.part_issued(request, part, targets[0])

        def _target_ok(shard: str) -> Callable[[IORequest, float], None]:
            def cb(req: IORequest, _latency: float) -> None:
                if self.tracer is not None:
                    self.tracer.attempt_done(req)
                state["outstanding"] -= 1
                if state["done"]:
                    return
                state["acks"] += 1
                if state["acks"] >= need:
                    state["done"] = True
                    if self.tracer is not None:
                        self.tracer.part_done(part)
                    finish(part, True)
            return cb

        def _target_err(shard: str) -> Callable[[IORequest, BaseException], None]:
            def cb(req: IORequest, exc: BaseException) -> None:
                if self.tracer is not None:
                    self.tracer.attempt_done(req)
                self.note_shard_error(shard, exc)
                state["outstanding"] -= 1
                if state["done"]:
                    return
                if state["acks"] + state["outstanding"] < need:
                    # Quorum unreachable this attempt: retry the whole
                    # fan-out or surface the failure.
                    state["done"] = True
                    self.stats.quorum_failures += 1
                    self._retry_or_fail(
                        st, request, part, arrival, finish, attempt, WRITE
                    )
            return cb

        for i, shard in enumerate(targets):
            # Every target (primary included) gets its own request
            # object: the part itself is never submitted, so a retry can
            # re-fan-out while stragglers of this attempt are in flight.
            dup = IORequest(part.time, part.op, part.lba, part.nbytes)
            if i > 0:
                self.stats.replica_writes += 1
                self.stats.replica_bytes += part.nbytes
            if self.tracer is not None:
                self.tracer.replica_write_issued(part, dup, shard)
            c.register_internal(dup, _target_ok(shard), _target_err(shard))
            c.shards[shard].submit(dup)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _issue_read(
        self,
        st: TenantState,
        request: IORequest,
        part: IORequest,
        arrival: float,
        finish: Callable[[IORequest, bool], None],
        attempt: int,
    ) -> None:
        c = self.cluster
        ridx = c.range_of(part.lba)
        window = c.dual_writes.get(ridx)
        if window is not None and window[0] not in self.down:
            order = [window[0]]  # migration: reads stay on the source
        else:
            order = self.targets(ridx)
        if not order:
            self._give_up(st, part, finish)
            return
        if attempt == 0 and self.tracer is not None:
            self.tracer.part_issued(request, part, order[0])
        ctl = {"done": False, "pending": 0, "tried": set(), "timer": None}
        self._read_target(
            st, request, part, arrival, finish, attempt, ctl, order[0], False
        )
        cfg = self.config
        if (cfg.hedge_reads and st.latency.count >= cfg.hedge_min_samples
                and len(self.targets(ridx)) > 1):
            delay = st.latency.percentile(95)
            if delay > 0:

                def _fire_hedge() -> None:
                    ctl["timer"] = None
                    if ctl["done"]:
                        return
                    nxt = self._next_untried(ridx, ctl["tried"])
                    if nxt is None:
                        return
                    self.stats.hedged_reads += 1
                    self._read_target(
                        st, request, part, arrival, finish, attempt, ctl,
                        nxt, True,
                    )

                ctl["timer"] = self.sim.schedule(delay, _fire_hedge,
                                                 daemon=True)

    def _next_untried(self, ridx: int, tried: Set[str]) -> Optional[str]:
        for name in self.targets(ridx):
            if name not in tried:
                return name
        return None

    def _read_target(
        self,
        st: TenantState,
        request: IORequest,
        part: IORequest,
        arrival: float,
        finish: Callable[[IORequest, bool], None],
        attempt: int,
        ctl: dict,
        shard: str,
        hedge: bool,
    ) -> None:
        c = self.cluster
        ctl["tried"].add(shard)
        ctl["pending"] += 1
        dup = IORequest(part.time, part.op, part.lba, part.nbytes)
        if self.tracer is not None:
            if hedge:
                self.tracer.hedge_issued(part, dup, shard)
            else:
                self.tracer.replica_read_issued(part, dup, shard)

        def _ok(req: IORequest, _latency: float) -> None:
            if self.tracer is not None:
                self.tracer.attempt_done(req)
            ctl["pending"] -= 1
            if ctl["done"]:
                return
            ctl["done"] = True
            self._cancel_timer(ctl)
            if hedge:
                self.stats.hedge_wins += 1
            if self.tracer is not None:
                self.tracer.part_done(part)
            finish(part, True)

        def _err(req: IORequest, exc: BaseException) -> None:
            if self.tracer is not None:
                self.tracer.attempt_done(req)
            self.note_shard_error(shard, exc)
            ctl["pending"] -= 1
            if ctl["done"]:
                return
            ridx = c.range_of(part.lba)
            nxt = self._next_untried(ridx, ctl["tried"])
            if nxt is not None:
                self.stats.failovers += 1
                self._read_target(
                    st, request, part, arrival, finish, attempt, ctl, nxt,
                    False,
                )
                return
            if ctl["pending"] > 0:
                return  # another in-flight attempt may still succeed
            ctl["done"] = True
            self._cancel_timer(ctl)
            self._retry_or_fail(
                st, request, part, arrival, finish, attempt, READ
            )

        c.register_internal(dup, _ok, _err)
        c.shards[shard].submit(dup)

    def _cancel_timer(self, ctl: dict) -> None:
        if ctl["timer"] is not None:
            self.sim.cancel(ctl["timer"])
            ctl["timer"] = None

    # ------------------------------------------------------------------
    # retry / give-up
    # ------------------------------------------------------------------
    def _retry_or_fail(
        self,
        st: TenantState,
        request: IORequest,
        part: IORequest,
        arrival: float,
        finish: Callable[[IORequest, bool], None],
        attempt: int,
        op: str,
    ) -> None:
        delay = self._allow_retry(st, arrival, attempt)
        if delay is None:
            self._give_up(st, part, finish)
            return
        self.stats.retries += 1
        if self.tracer is not None:
            self.tracer.part_retry(part, attempt + 1, self.sim.now,
                                   self.sim.now + delay)
        issue = self._issue_write if op == WRITE else self._issue_read
        self.sim.schedule(
            delay,
            lambda: issue(st, request, part, arrival, finish, attempt + 1),
        )

    def _allow_retry(
        self, st: TenantState, arrival: float, attempt: int
    ) -> Optional[float]:
        """Backoff before the next attempt, or ``None`` when the part
        must give up (retries, deadline or retry budget exhausted)."""
        cfg = self.config
        if attempt + 1 > cfg.max_retries:
            return None
        delay = min(cfg.retry_backoff_s * (2.0 ** attempt),
                    cfg.retry_backoff_cap_s)
        if (cfg.deadline_s is not None
                and (self.sim.now + delay) - arrival > cfg.deadline_s):
            self.stats.deadline_exhausted += 1
            return None
        bucket = self._retry_bucket(st.name)
        if bucket is not None and not bucket.try_consume(self.sim.now):
            self.stats.retry_budget_exhausted += 1
            return None
        return delay

    def _retry_bucket(self, tenant: str) -> Optional[TokenBucket]:
        if tenant not in self._retry_buckets:
            cfg = self.config
            self._retry_buckets[tenant] = (
                None if cfg.retry_budget_iops is None
                else TokenBucket(cfg.retry_budget_iops, cfg.retry_budget_burst)
            )
        return self._retry_buckets[tenant]

    def _give_up(
        self,
        st: TenantState,
        part: IORequest,
        finish: Callable[[IORequest, bool], None],
    ) -> None:
        st.stats.unrecovered += 1
        self.stats.unrecovered_parts += 1
        self.cluster.stats.unrecovered_parts += 1
        if self.tracer is not None:
            self.tracer.part_done(part)
        finish(part, False)

    # ------------------------------------------------------------------
    # shard death & rebuild
    # ------------------------------------------------------------------
    def on_shard_dead(self, name: str) -> None:
        """Formal death declaration (the health monitor's ``on_dead``):
        cut the shard out of routing and re-replicate everything it
        held.  Idempotent."""
        if name in self.dead:
            return
        self.dead.add(name)
        self.down.add(name)
        self.stats.shards_failed += 1
        c = self.cluster
        if name in c.shards:
            c.decommission_shard(name)
        for ridx, job in list(self.rebuilding.items()):
            if job.src == name or job.dst == name:
                # The copy lost an endpoint; abandon it and let the
                # re-plan below pick a fresh source/destination.
                job.cancelled = True
                del self.rebuilding[ridx]
                self.stats.rebuilds_abandoned += 1
                if self.tracer is not None:
                    self.tracer.rebuild_done(ridx)
        self._plan_rebuilds()

    def _plan_rebuilds(self) -> None:
        c = self.cluster
        want = min(self.config.factor, len(c.ring))
        for ridx in sorted(self.members):
            live = [n for n in self.members[ridx] if n not in self.down]
            self.members[ridx][:] = live
            if ridx in self.rebuilding or not live or len(live) >= want:
                continue
            dst = next(
                (n for n in self.desired_replicas(ridx)
                 if n not in live and n not in self.down),
                None,
            )
            if dst is None:
                continue  # no candidate shard left to rebuild onto
            self._start_rebuild(ridx, live[0], dst)

    def _start_rebuild(self, ridx: int, src: str, dst: str) -> None:
        c = self.cluster
        job = _RebuildJob(ridx, src, dst)
        self.rebuilding[ridx] = job
        self.stats.rebuilds_started += 1
        # Clean slate: the destination must not hold stale blocks from an
        # earlier life of the range (metadata-only, charged as a trim).
        c.shards[dst].discard(ridx * c.range_bytes, c.range_bytes)
        if self.tracer is not None:
            self.tracer.rebuild_started(ridx, src, dst)
        bs = c.block_size
        blocks = sorted(
            blk for blk in self.versions if c.range_of(blk * bs) == ridx
        )
        self._start_pass(job, blocks)

    def _start_pass(self, job: _RebuildJob, blocks: List[int]) -> None:
        if not blocks:
            self._join(job)
            return
        job.passes += 1
        c = self.cluster
        bs = c.block_size
        job.outstanding = len(blocks)
        for blk in blocks:
            rreq = IORequest(self.sim.now, READ, blk * bs, bs)
            self._rebuild_tokens[id(rreq)] = (job, blk)
            c.scheduler.submit(REBUILD_TENANT, rreq)

    def _rebuild_admitted(
        self, st: TenantState, request: IORequest, arrival: float
    ) -> None:
        """Dispatch sink of the internal rebuild tenant: one admitted
        copy read, QoS-throttled against foreground traffic."""
        job, blk = self._rebuild_tokens.pop(id(request))
        c = self.cluster

        def _block_done() -> None:
            c.scheduler.note_complete(st, arrival)
            job.outstanding -= 1
            if job.outstanding == 0 and not job.cancelled:
                self._pass_done(job)

        if job.cancelled or self.rebuilding.get(job.ridx) is not job:
            _block_done()
            return

        def _read_ok(req: IORequest, _latency: float) -> None:
            self._copy_read_done(job, blk, _block_done)

        def _read_err(req: IORequest, exc: BaseException) -> None:
            self.note_shard_error(job.src, exc)
            _block_done()

        c.register_internal(request, _read_ok, _read_err)
        if self.tracer is not None:
            self.tracer.rebuild_io(job.ridx, request)
        c.shards[job.src].submit(request)

    def _copy_read_done(
        self, job: _RebuildJob, blk: int, done: Callable[[], None]
    ) -> None:
        c = self.cluster
        bs = c.block_size
        if job.cancelled:
            done()
            return
        version = self.versions.get(blk, 0)
        src_mapped = c.shards[job.src].mapping.lookup(blk * bs) is not None
        job.dirty.discard(blk)
        if version == 0 or not src_mapped:
            # Trimmed (or never durable) since enumeration: make sure the
            # destination cannot resurrect a stale copy.
            c.shards[job.dst].discard(blk * bs, bs)
            done()
            return
        # The version is captured *now*, not at read issue: content is a
        # pure function of (lba, version), so ingesting at the current
        # oracle version always stores the current bytes; a write landing
        # after this instant re-dirties the block and the next pass
        # recopies it.
        wreq = IORequest(self.sim.now, WRITE, blk * bs, bs)

        def _ingest_ok(req: IORequest, _latency: float) -> None:
            self.stats.rebuild_blocks += 1
            self.stats.rebuild_bytes += bs
            done()

        def _ingest_err(req: IORequest, exc: BaseException) -> None:
            self.note_shard_error(job.dst, exc)
            done()

        c.register_internal(wreq, _ingest_ok, _ingest_err)
        if self.tracer is not None:
            self.tracer.rebuild_io(job.ridx, wreq)
        c.shards[job.dst].ingest_replica(blk * bs, bs, (version,), ref=wreq)

    def _pass_done(self, job: _RebuildJob) -> None:
        if self.rebuilding.get(job.ridx) is not job:
            return
        dirty = sorted(job.dirty)
        if not dirty:
            self._join(job)
            return
        if job.passes >= self.config.rebuild_max_passes:
            job.cancelled = True
            del self.rebuilding[job.ridx]
            self.stats.rebuilds_abandoned += 1
            if self.tracer is not None:
                self.tracer.rebuild_done(job.ridx)
            return
        self._start_pass(job, dirty)

    def _join(self, job: _RebuildJob) -> None:
        """Copy converged: activate the destination as a full replica.

        The whole range's version counters are floored to the oracle
        *before* the member list grows, so the first foreground write
        the new replica receives bumps from exactly the fleet-wide
        count.  Join is atomic on the sim clock — no event can land
        between the floor and the membership append."""
        c = self.cluster
        dst_dev = c.shards[job.dst]
        start = job.ridx * c.range_blocks
        for blk in range(start, start + c.range_blocks):
            version = self.versions.get(blk)
            if version:
                dst_dev.set_version_floor(blk, version)
        mem = self.members.setdefault(job.ridx, [])
        if job.dst not in mem:
            mem.append(job.dst)
        del self.rebuilding[job.ridx]
        self.stats.rebuilds_completed += 1
        if self.tracer is not None:
            self.tracer.rebuild_done(job.ridx)

    # ------------------------------------------------------------------
    # media-scrub self-healing
    # ------------------------------------------------------------------
    def replica_source_for(self, name: str) -> Callable[[int, int], bool]:
        """Self-healing hook for shard ``name``'s media scrubber.

        Returns a ``(lba, nbytes) -> bool`` callable (the
        :class:`~repro.flash.scrub.MediaScrubber` ``replica_source``):
        when the scrubber finds latent corruption it cannot repair
        locally, the hook re-ingests the covered blocks from a peer
        replica — a charged read on the surviving holder, then
        :meth:`~repro.core.device.EDCBlockDevice.ingest_replica` on
        ``name`` at the oracle version, the same byte-exactness
        machinery rebuild uses.  Returns ``True`` when at least one
        block was re-ingested.
        """
        c = self.cluster
        bs = c.block_size

        def _repair(lba: int, nbytes: int) -> bool:
            ridx = c.range_of(lba)
            peers = [n for n in self.targets(ridx) if n != name]
            repaired = False
            for blk in range(lba // bs, (lba + nbytes + bs - 1) // bs):
                version = self.versions.get(blk, 0)
                if version == 0:
                    continue
                src = next(
                    (n for n in peers
                     if c.shards[n].mapping.lookup(blk * bs) is not None),
                    None,
                )
                if src is None:
                    continue
                rreq = IORequest(self.sim.now, READ, blk * bs, bs)
                c.register_internal(
                    rreq, lambda *_: None, lambda *_: None
                )
                c.shards[src].submit(rreq)

                def _ingest_ok(req: IORequest, _latency: float) -> None:
                    self.stats.scrub_repairs += 1
                    self.stats.scrub_repair_bytes += bs

                wreq = IORequest(self.sim.now, WRITE, blk * bs, bs)
                c.register_internal(wreq, _ingest_ok, lambda *_: None)
                c.shards[name].ingest_replica(
                    blk * bs, bs, (version,), ref=wreq
                )
                repaired = True
            return repaired

        return _repair

    # ------------------------------------------------------------------
    # durability audit (the chaos verdict)
    # ------------------------------------------------------------------
    def audit_durability(self) -> DurabilityReport:
        """Check every acked block against the acked-write invariant.

        Run after the workload drains and every shard flushed: each
        acked block must be mapped on at least one live replica and the
        surviving copy must be byte-exact (version counters agree with
        the oracle and the stored payload decodes to the content store's
        bytes).  Ranges a *migration* moved are exempt from the version
        check only — migration copies flow through the destination's
        normal write path, bumping its counters independently — the
        decode check still applies.
        """
        c = self.cluster
        bs = c.block_size
        report = DurabilityReport(
            rebuilds_pending=len(self.rebuilding),
            rebuilds_abandoned=self.stats.rebuilds_abandoned,
        )
        want = min(self.config.factor, len(c.ring))
        under: Set[int] = set()
        #: (holder, mapping entry) -> decode verdict: a merged run is
        #: decoded once, not once per block it covers
        decoded: Dict[Tuple[str, int], bool] = {}
        for blk in sorted(c._acked_blocks):
            ridx = c.range_of(blk * bs)
            holders = [
                n for n in self.targets(ridx)
                if c.shards[n].mapping.lookup(blk * bs) is not None
            ]
            report.checked_blocks += 1
            if not holders:
                report.lost.append(blk)
                continue
            if len(holders) < want or ridx in self.rebuilding:
                under.add(ridx)
            if not self._scrub_block(holders[0], ridx, blk, decoded):
                report.corrupt.append(blk)
        report.under_replicated = sorted(under)
        return report

    def _scrub_block(
        self, holder: str, ridx: int, blk: int,
        decoded: Dict[Tuple[str, int], bool],
    ) -> bool:
        """Byte-exactness of one block's surviving copy on ``holder``."""
        c = self.cluster
        dev = c.shards[holder]
        bs = c.block_size
        if (ridx not in self.migrated
                and dev.version_of(blk) != self.versions.get(blk, 0)):
            return False
        eid, _entry = dev.mapping.lookup(blk * bs)
        ok = decoded.get((holder, eid))
        if ok is None:
            ok = decoded[holder, eid] = dev.entry_decodes(eid)
        return ok
