"""Consistent-hash routing of LBA ranges across the shard fleet.

The cluster's global logical address space is cut into fixed-size **LBA
ranges** (``range_blocks`` logical blocks each); a :class:`HashRing`
with virtual nodes maps every range to one shard.  Consistent hashing
is what makes the fleet elastic: adding or removing a shard moves only
~K/N of the K ranges, and the ring is seeded so placement is fully
deterministic and reproducible across runs.

:class:`ClusterDistributer` is the fleet analog of
:class:`~repro.core.distributer.RequestDistributer` — the single point
through which traffic reaches the shards.  It folds tenant-local
addresses into per-tenant namespaces, admits requests through the
:class:`~repro.cluster.tenants.QoSScheduler`, splits requests at range
boundaries, routes each part to its owning shard's
:class:`~repro.core.device.EDCBlockDevice`, and keeps fleet-level
accounting (issued I/O, attempted vs. effective trims, acked-write
blocks for the durability audit).

Which shards hold a range is the
:class:`~repro.cluster.replication.ReplicationManager`'s placement table
and nothing else; every part is issued through the manager (a fleet
without redundancy is factor 1).  The one migration-time map kept here
is ``dual_writes``, maintained by
:class:`~repro.cluster.migration.MigrationOrchestrator`: ranges
mid-migration, whose writes are acked by the current replica set *and*
duplicated to the destination while reads stay on the source.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.cluster.replication import ReplicationConfig, ReplicationManager
from repro.cluster.tenants import QoSScheduler, TenantSpec, TenantState
from repro.sim.engine import Simulator
from repro.traces.model import IORequest, READ, WRITE, fold_request

__all__ = ["HashRing", "ClusterStats", "ClusterDistributer"]

#: virtual nodes per shard on the hash ring
VNODES = 64


class HashRing:
    """Deterministic consistent-hash ring with virtual nodes."""

    def __init__(self, shards: Iterable[str], seed: int = 0) -> None:
        names = list(shards)
        if not names:
            raise ValueError("ring needs at least one shard")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names: {names}")
        self.seed = seed
        self._shards: List[str] = []
        #: sorted (position, shard) ring points
        self._points: List[Tuple[int, str]] = []
        for name in names:
            self.add_shard(name)

    # ------------------------------------------------------------------
    def _hash(self, text: str) -> int:
        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    @property
    def shards(self) -> Tuple[str, ...]:
        return tuple(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    # ------------------------------------------------------------------
    def add_shard(self, name: str) -> None:
        if name in self._shards:
            raise ValueError(f"shard {name!r} already on the ring")
        self._shards.append(name)
        for v in range(VNODES):
            pos = self._hash(f"{self.seed}|shard|{name}|{v}")
            insort(self._points, (pos, name))

    def remove_shard(self, name: str) -> None:
        if name not in self._shards:
            raise ValueError(f"shard {name!r} not on the ring")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._shards.remove(name)
        self._points = [p for p in self._points if p[1] != name]

    # ------------------------------------------------------------------
    def shard_for(self, key: object) -> str:
        """The shard owning ``key`` (first ring point at or after its hash)."""
        h = self._hash(f"{self.seed}|key|{key}")
        i = bisect_left(self._points, (h, ""))
        if i == len(self._points):
            i = 0
        return self._points[i][1]

    def successors(self, key: object, n: int) -> List[str]:
        """The first ``n`` *distinct* shards on the successor walk from
        ``key`` — replica placement.

        Walks the ring clockwise from the key's hash, skipping virtual
        nodes of shards already collected, so the list holds ``min(n,
        len(self))`` distinct names and ``successors(key, 1)[0] ==
        shard_for(key)``.  Because removing a shard only deletes its own
        points (never reordering the survivors'), the post-removal list
        is always the old list minus the removed shard with at most one
        new name appended — the stability failover and re-replication
        rely on.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1: {n!r}")
        h = self._hash(f"{self.seed}|key|{key}")
        start = bisect_left(self._points, (h, ""))
        out: List[str] = []
        npoints = len(self._points)
        for step in range(npoints):
            name = self._points[(start + step) % npoints][1]
            if name not in out:
                out.append(name)
                if len(out) == n:
                    break
        return out


@dataclass
class ClusterStats:
    """Fleet-level issued-I/O accounting: what the router split, routed
    and duplicated across shards."""

    issued_writes: int = 0
    issued_reads: int = 0
    written_bytes: int = 0
    read_bytes: int = 0
    trims_attempted: int = 0
    trims_effective: int = 0
    #: requests split at a range boundary into multiple shard parts
    split_requests: int = 0
    #: duplicate writes issued to migration destinations (dual-write window)
    dual_writes: int = 0
    dual_write_bytes: int = 0
    #: shard parts that exhausted every recovery path (device error with
    #: no live replica / retry budget left) — the tenant's data-loss count
    unrecovered_parts: int = 0


class ClusterDistributer:
    """Routes multi-tenant traffic onto N ``EDCBlockDevice`` shards."""

    def __init__(
        self,
        sim: Simulator,
        shards: Mapping[str, object],
        tenants: Optional[Iterable[TenantSpec]] = None,
        namespace_bytes: int = 1 << 27,
        range_blocks: int = 256,
        seed: int = 0,
        tracer=None,
        replication: ReplicationConfig = ReplicationConfig(factor=1),
    ) -> None:
        if not shards:
            raise ValueError("cluster needs at least one shard")
        self.sim = sim
        self.shards: Dict[str, object] = dict(shards)
        block_sizes = {dev.config.block_size for dev in self.shards.values()}
        if len(block_sizes) != 1:
            raise ValueError(f"shards disagree on block size: {block_sizes}")
        self.block_size = block_sizes.pop()
        if namespace_bytes < self.block_size or namespace_bytes % self.block_size:
            raise ValueError(
                f"namespace_bytes must be a positive multiple of the block "
                f"size: {namespace_bytes!r}"
            )
        if range_blocks < 1:
            raise ValueError(f"range_blocks must be >= 1: {range_blocks!r}")
        for dev in self.shards.values():
            if dev.sim is not sim:
                raise ValueError("every shard must run on the cluster simulator")
        self.namespace_bytes = namespace_bytes
        self.range_blocks = range_blocks
        self.ring = HashRing(self.shards, seed=seed)
        self.scheduler = QoSScheduler(
            sim,
            list(tenants) if tenants is not None else [TenantSpec("default")],
            self._dispatch,
        )
        # Distributed tracing is purely observational: every hook below
        # records spans but schedules no events, so a traced run stays
        # bit-identical to an untraced one.  ``None`` = untraced.
        self.tracer = tracer
        if tracer is not None:
            self.scheduler.on_queued = self.tracer.request_queued
        self.stats = ClusterStats()
        #: range index -> (source, destination) during a dual-write window
        self.dual_writes: Dict[int, Tuple[str, str]] = {}
        #: migration hook: called with the block numbers of every
        #: foreground write duplicated during a dual-write window
        self.on_dual_write: Optional[Callable[[List[int]], None]] = None
        #: membership hook: called with the shard name *before* it is
        #: removed from the ring (the migration orchestrator aborts any
        #: copy touching it — see :meth:`decommission_shard`)
        self.on_membership_change: Optional[Callable[[str], None]] = None
        #: shards removed from routing (dead / decommissioned); their
        #: device objects stay in :attr:`shards` for reporting
        self.decommissioned: Set[str] = set()
        #: registered shard request -> (completion callback, error callback)
        self._inflight: Dict[IORequest, Tuple[Callable, Optional[Callable]]] = {}
        #: [pending request set, callback] barriers (see :meth:`when_drained`)
        self._drain_waiters: List[list] = []
        #: global block numbers with at least one acked (completed) write
        self._acked_blocks: Set[int] = set()
        #: globalized request -> user completion callback
        self._user_done: Dict[IORequest, Callable[[], None]] = {}
        for dev in self.shards.values():
            dev.on_request_complete = self._request_completed
            # Escalate device-level failures instead of absorbing them:
            # a failed sub-I/O reaches the cluster error path (per-tenant
            # unrecovered accounting, replica failover).  Inert on a
            # fault-free run — the hook only fires on actual errors.
            dev.on_request_error = self._request_failed
        #: the placement table and only part-issue path
        self.replication = ReplicationManager(self, replication)

    # ------------------------------------------------------------------
    # addressing & routing
    # ------------------------------------------------------------------
    @property
    def range_bytes(self) -> int:
        return self.range_blocks * self.block_size

    def range_of(self, lba: int) -> int:
        return lba // self.range_bytes

    def owner_of(self, range_idx: int) -> str:
        """Current owner of a range: its first live replica (the
        read/ack primary), else the ring (so routing still resolves for
        ranges whose every replica died)."""
        live = self.replication.targets(range_idx)
        return live[0] if live else self.ring.shard_for(range_idx)

    def tenant_index(self, tenant: str) -> int:
        return self.scheduler.state(tenant).index

    def globalize(self, tenant: str, request: IORequest) -> IORequest:
        """Fold a tenant-local request into the tenant's global namespace.

        The fold is :func:`~repro.traces.model.fold_request` onto
        ``namespace_bytes`` (the one a single-device replay applies)
        plus the tenant's offset, so a 1-tenant cluster sees the very
        addresses a single-device replay of the folded trace would.
        """
        ns = self.namespace_bytes
        local = fold_request(request, ns, self.block_size)
        lba = self.tenant_index(tenant) * ns + local.lba
        return IORequest(local.time, local.op, lba, local.nbytes)

    def ranges_covered(self, lba: int, nbytes: int) -> range:
        rb = self.range_bytes
        return range(lba // rb, (lba + nbytes - 1) // rb + 1)

    def _split(self, request: IORequest) -> Tuple[IORequest, ...]:
        """Cut a global request at range boundaries — only when needed.

        A request whose covered ranges share one replica set with no
        open dual-write window is routed whole: splitting it would
        change the device-level request stream (and thus latencies) the
        single-device replay produces, breaking the degenerate-fleet
        bit-identity guarantee.
        """
        covered = self.ranges_covered(request.lba, request.nbytes)
        if len(covered) == 1:
            return (request,)
        # Two ranges sharing a primary can still differ in their
        # secondary replicas; an unsplit write would fan out to the
        # first range's set only, silently under-replicating the
        # second.  Route whole only when the full sets agree.
        placements = {tuple(self.replication.targets(r)) for r in covered}
        if len(placements) == 1 and not any(
            r in self.dual_writes for r in covered
        ):
            return (request,)
        rb = self.range_bytes
        parts: List[IORequest] = []
        lba, remaining = request.lba, request.nbytes
        while remaining > 0:
            n = min(remaining, (lba // rb + 1) * rb - lba)
            parts.append(IORequest(request.time, request.op, lba, n))
            lba += n
            remaining -= n
        return tuple(parts)

    # ------------------------------------------------------------------
    # public API (RequestDistributer-style verbs over the fleet)
    # ------------------------------------------------------------------
    def submit(
        self,
        request: IORequest,
        tenant: str = "default",
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """Admit one tenant-local request arriving *now*."""
        g = self.globalize(tenant, request)
        if on_complete is not None:
            self._user_done[g] = on_complete
        if self.tracer is not None:
            self.tracer.request_submitted(g, tenant)
        self.scheduler.submit(tenant, g)

    def write(
        self,
        tenant: str,
        lba: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """Issue a tenant write of ``nbytes`` at tenant-local ``lba``."""
        self.submit(
            IORequest(self.sim.now, WRITE, lba, nbytes), tenant, on_complete
        )

    def read(
        self,
        tenant: str,
        lba: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """Fetch ``nbytes`` of tenant data at tenant-local ``lba``."""
        self.submit(
            IORequest(self.sim.now, READ, lba, nbytes), tenant, on_complete
        )

    def trim(self, tenant: str, lba: int, nbytes: int) -> int:
        """Discard the tenant's blocks in ``[lba, lba + nbytes)``.

        Routed to the owning shard(s) and applied immediately (trims
        bypass admission: they release capacity, they don't consume
        it).  Returns the number of blocks that were actually mapped.
        """
        g = self.globalize(
            tenant, IORequest(self.sim.now, WRITE, lba, max(1, nbytes))
        )
        self.stats.trims_attempted += 1
        unmapped = 0
        bs = self.block_size
        for part in self._split(IORequest(g.time, g.op, g.lba, nbytes)):
            ridx = self.range_of(part.lba)
            # Every live replica holding the range must drop the
            # blocks, or a later failover would resurrect them.
            targets = self.replication.trim_targets(ridx, part)
            window = self.dual_writes.get(ridx)
            if window is not None:
                targets = [t for t in window if t not in targets] + targets
                if self.on_dual_write is not None:
                    # Trimmed blocks are "dirty" too: the migration copy
                    # must not resurrect them on the destination.
                    self.on_dual_write(
                        list(range(part.lba // bs,
                                   (part.lba + part.nbytes + bs - 1) // bs))
                    )
            for name in targets:
                unmapped += self.shards[name].discard(part.lba, part.nbytes)
            start = part.lba // bs
            self._acked_blocks.difference_update(
                range(start, (part.lba + part.nbytes + bs - 1) // bs)
            )
        if unmapped:
            self.stats.trims_effective += 1
        return unmapped

    # ------------------------------------------------------------------
    # dispatch (the scheduler's sink)
    # ------------------------------------------------------------------
    def _dispatch(
        self, st: TenantState, request: IORequest, arrival: float
    ) -> None:
        if self.tracer is not None:
            # Splits the admission delay into throttle wait vs. EDF
            # queueing now that the dispatch instant is known.
            self.tracer.request_dispatched(request, arrival)
        parts = self._split(request)
        if len(parts) > 1:
            self.stats.split_requests += 1
        if request.is_write:
            self.stats.issued_writes += 1
            self.stats.written_bytes += request.nbytes
        else:
            self.stats.issued_reads += 1
            self.stats.read_bytes += request.nbytes
        bs = self.block_size
        remaining = [len(parts)]

        def _finish_part(part: IORequest, ok: bool) -> None:
            if self.tracer is not None:
                self.tracer.part_done(part)
            if ok and part.is_write:
                # Only successful writes enter the acked set: a part that
                # exhausted every recovery path was *not* acked, so the
                # lost-write invariant must not expect it to be durable.
                start = part.lba // bs
                end = (part.lba + part.nbytes + bs - 1) // bs
                self._acked_blocks.update(range(start, end))
            remaining[0] -= 1
            if remaining[0] == 0:
                latency = self.scheduler.note_complete(st, arrival)
                if self.tracer is not None:
                    self.tracer.request_done(request, latency)
                user_cb = self._user_done.pop(request, None)
                if user_cb is not None:
                    user_cb()

        for part in parts:
            self.replication.issue_part(st, request, part, _finish_part)

    # ------------------------------------------------------------------
    # completion plumbing
    # ------------------------------------------------------------------
    def _request_completed(self, request: IORequest, latency: float) -> None:
        entry = self._inflight.pop(request, None)
        if entry is None:
            return  # dual-write duplicate: never registered
        if self.tracer is not None:
            self.tracer.io_done(request)
        on_complete, _on_error = entry
        on_complete(request, latency)
        self._fire_drain_waiters(request)

    def _request_failed(self, request: IORequest, exc: BaseException) -> None:
        """Device error path (installed as every shard's
        ``on_request_error``): deregister the request and route the
        failure to its error callback.  A registered request without one
        (migration copy I/O) is dropped after deregistration — its owner's
        barrier stalls harmlessly, which only happens when the owning
        background job was already aborted with its shard."""
        entry = self._inflight.pop(request, None)
        if entry is None:
            return
        if self.tracer is not None:
            self.tracer.io_done(request)
        _on_complete, on_error = entry
        if on_error is not None:
            on_error(request, exc)
        # Quiesce barriers must see failed parts drain too, or a
        # migration waiting on a request that died with its shard would
        # hang forever.
        self._fire_drain_waiters(request)

    def _fire_drain_waiters(self, request: IORequest) -> None:
        if not self._drain_waiters:
            return
        fired = []
        for waiter in self._drain_waiters:
            waiter[0].discard(request)
            if not waiter[0]:
                fired.append(waiter)
        for waiter in fired:
            self._drain_waiters.remove(waiter)
            waiter[1]()

    def register_internal(
        self,
        request: IORequest,
        on_complete: Callable[[IORequest, float], None],
        on_error: Optional[Callable[[IORequest, BaseException], None]] = None,
    ) -> None:
        """Track one shard-bound request: a replica attempt of a tenant
        part, or migration / rebuild copy I/O.

        The request must then be submitted straight to a shard device;
        its completion routes to ``on_complete`` (errors to ``on_error``).
        Every request registered here is visible to the migration
        quiesce barrier (:meth:`inflight_in`).
        """
        self._inflight[request] = (on_complete, on_error)

    def inflight_in(self, ranges: Iterable[int]) -> Set[IORequest]:
        """Registered requests currently in flight to ``ranges``.

        Derived from the in-flight registry on demand: migrations are
        rare, parts are not.
        """
        wanted = set(ranges)
        return {
            req for req in self._inflight
            if wanted.intersection(self.ranges_covered(req.lba, req.nbytes))
        }

    def when_drained(
        self, requests: Set[IORequest], callback: Callable[[], None]
    ) -> None:
        """Call ``callback`` once every request in ``requests`` has
        completed.

        The migration quiesce barrier: fires immediately (deferred one
        event) when the set is already empty.
        """
        pending = requests & self._inflight.keys()
        if not pending:
            self.sim.defer(callback)
            return
        self._drain_waiters.append([pending, callback])

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def decommission_shard(self, name: str) -> None:
        """Remove ``name`` from routing after a failure (or retirement).

        The safe membership-change path: active migrations touching the
        shard are aborted first (via :attr:`on_membership_change`), then
        its ring points go and the placement table stops listing it, so
        no range can resolve to the dead shard.  The device object stays
        in :attr:`shards` for final reporting.  Idempotent.
        """
        if name not in self.shards:
            raise ValueError(f"unknown shard {name!r}")
        if name in self.decommissioned:
            return
        if self.on_membership_change is not None:
            self.on_membership_change(name)
        self.decommissioned.add(name)
        if name in self.ring.shards and len(self.ring) > 1:
            self.ring.remove_shard(name)
        self.replication.down.add(name)

    # ------------------------------------------------------------------
    # invariants & reporting
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Registered requests submitted but not yet completed."""
        return len(self._inflight)

    def check_no_lost_writes(self) -> List[int]:
        """Global block numbers acked as written that no live replica
        still maps (the durability audit's ``lost`` list).  An empty
        list is the cluster's durability invariant, through any number
        of migrations."""
        return self.replication.audit_durability().lost
