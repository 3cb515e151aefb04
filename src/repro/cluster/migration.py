"""Live shard migration: copy-then-cutover with a dual-write window.

Moving an LBA range between shards while foreground traffic keeps
hitting it follows the classic live-migration choreography:

1. **Dual-write window opens.**  New writes to the range are acked by
   its current replica set (the source is its primary) and duplicated to
   the destination; every duplicated block is marked *dirty* so the copy
   never clobbers it with stale data.  Reads stay on the source.
2. **Quiesce.**  Wait for requests already in flight to the range when
   the window opened (replica attempts included) — they predate
   dual-writing, so the copy must not race their commits.
3. **Snapshot + chunked copy.**  Enumerate the live (mapped, not dirty)
   blocks on the source and copy them in small chunks — read from the
   source, write to the destination — re-checking the dirty set at
   every issue so foreground writes always win.  Copy I/O flows through
   the normal device submit paths, so it is charged exactly like GC
   traffic: it occupies device bandwidth, inflates the destination's
   write amplification, and shows up in the energy model's busy time.
4. **Cutover.**  Atomically put the destination in the source's slot
   of the replication manager's placement table and close the
   dual-write window.  On a replicated fleet this moves the replica
   set's primary; the other replicas stay where they are.
5. **Cleanup.**  Once in-flight source reads drain, discard the range
   on the source, releasing its physical space.

Zero acked writes are lost at any point: an acked write either
committed on the source before cutover *and* was dual-written to the
destination, or was routed to the destination after cutover.  The
durability audit
(:meth:`~repro.cluster.replication.ReplicationManager.audit_durability`)
verifies exactly this.

A range is either migrating or being re-replicated, never both: a range
under rebuild cannot start migrating, and a migration is aborted when
any shard holding its range leaves the cluster, so redundancy repair
always wins over re-placement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.cluster.routing import ClusterDistributer
from repro.traces.model import IORequest, READ, WRITE

__all__ = ["Migration", "MigrationStats", "MigrationOrchestrator"]


class MigrationError(RuntimeError):
    """Raised on invalid migration requests (unknown shard, busy range)."""


@dataclass
class MigrationStats:
    """Aggregate accounting across every migration of the orchestrator."""

    started: int = 0
    completed: int = 0
    #: blocks actually copied source -> destination
    copied_blocks: int = 0
    #: payload bytes of those copies (one device read + one device write each)
    copied_bytes: int = 0
    #: snapshot blocks skipped because a foreground dual-write superseded them
    skipped_dirty_blocks: int = 0
    #: stale source blocks dropped at cleanup
    discarded_source_blocks: int = 0
    #: migrations aborted because their source or destination left the
    #: cluster mid-copy (shard failure / decommission)
    aborted: int = 0


@dataclass
class Migration:
    """One range's journey from ``src`` to ``dst``."""

    range_idx: int
    src: str
    dst: str
    started_at: float
    #: quiescing -> copying -> cleanup -> done, or -> aborted at any point
    state: str = "quiescing"
    finished_at: Optional[float] = None
    #: why the migration was aborted (``None`` unless state == "aborted")
    abort_reason: Optional[str] = None
    #: live blocks enumerated at the start of the copy phase
    snapshot_blocks: int = 0
    copied_blocks: int = 0
    copied_bytes: int = 0
    skipped_dirty: int = 0
    #: global block numbers superseded by foreground writes (or trims)
    dirty: Set[int] = field(default_factory=set)
    on_done: Optional[Callable[["Migration"], None]] = None

    @property
    def done(self) -> bool:
        return self.state == "done"


class MigrationOrchestrator:
    """Runs live range migrations over a :class:`ClusterDistributer`.

    Installs itself as the cluster's dual-write observer; one
    orchestrator per cluster.  Multiple ranges may migrate concurrently
    (each range at most once at a time).
    """

    def __init__(
        self, cluster: ClusterDistributer, chunk_blocks: int = 8
    ) -> None:
        if chunk_blocks < 1:
            raise ValueError(f"chunk_blocks must be >= 1: {chunk_blocks!r}")
        self.cluster = cluster
        self.chunk_blocks = chunk_blocks
        self.active: Dict[int, Migration] = {}
        self.completed: List[Migration] = []
        self.stats = MigrationStats()
        #: copy queues per active migration
        self._queues: Dict[int, Deque[int]] = {}
        cluster.on_dual_write = self._note_dirty
        # Membership changes must not leave a dangling dual-write
        # window: a shard leaving the cluster deterministically aborts
        # every migration it is part of.
        cluster.on_membership_change = self.on_shard_removed

    # ------------------------------------------------------------------
    def on_shard_removed(self, name: str) -> None:
        """A shard is leaving the cluster (failure or decommission).

        Called by :meth:`ClusterDistributer.decommission_shard` *before*
        the ring changes.  Every active migration whose destination is
        the departing shard, or whose range the departing shard holds
        (the source or one of its peers, which the manager is about to
        re-replicate), is aborted: its dual-write window closes, its
        copy queue is dropped, and in-flight copy callbacks become
        no-ops.  Cut-over never happened, so the placement table never
        named the destination.
        """
        members = self.cluster.replication.members
        for m in list(self.active.values()):
            if name in (m.src, m.dst, *members.get(m.range_idx, ())):
                self._abort(m, f"shard {name!r} removed from the cluster")

    def _abort(self, m: Migration, reason: str) -> None:
        c = self.cluster
        c.dual_writes.pop(m.range_idx, None)
        # A completed cutover is permanent (the data already moved);
        # aborting only cancels migrations that never cut over.
        m.state = "aborted"
        m.abort_reason = reason
        m.finished_at = c.sim.now
        self.active.pop(m.range_idx, None)
        self._queues.pop(m.range_idx, None)
        self.completed.append(m)
        self.stats.aborted += 1
        if c.tracer is not None:
            c.tracer.migration_done(m)
        if m.on_done is not None:
            m.on_done(m)

    # ------------------------------------------------------------------
    def _note_dirty(self, blocks: List[int]) -> None:
        bs = self.cluster.block_size
        for blk in blocks:
            m = self.active.get(self.cluster.range_of(blk * bs))
            if m is not None:
                m.dirty.add(blk)

    def migration_bytes(self) -> int:
        """Total migration traffic: copies plus dual-write duplicates."""
        return self.stats.copied_bytes + self.cluster.stats.dual_write_bytes

    # ------------------------------------------------------------------
    def migrate(
        self,
        range_idx: int,
        dst: Optional[str] = None,
        on_done: Optional[Callable[[Migration], None]] = None,
    ) -> Migration:
        """Start migrating ``range_idx`` to ``dst`` (least-full shard if
        ``None``).  Returns the live :class:`Migration`; completion is
        signalled through ``on_done`` on the simulation clock."""
        c = self.cluster
        if range_idx in self.active:
            raise MigrationError(f"range {range_idx} is already migrating")
        if range_idx in c.replication.rebuilding:
            raise MigrationError(f"range {range_idx} is being rebuilt")
        holders = c.replication.targets(range_idx)
        src = c.owner_of(range_idx)
        if dst is None:
            candidates = [n for n in c.shards if n not in holders]
            if not candidates:
                raise MigrationError("no destination shard available")
            dst = min(
                candidates,
                key=lambda n: (c.shards[n].allocator.physical_bytes, n),
            )
        if dst not in c.shards:
            raise MigrationError(f"unknown destination shard {dst!r}")
        if dst in holders:
            raise MigrationError(
                f"range {range_idx} already lives on {dst!r}"
            )
        m = Migration(
            range_idx=range_idx, src=src, dst=dst,
            started_at=c.sim.now, on_done=on_done,
        )
        self.active[range_idx] = m
        self.stats.started += 1
        if c.tracer is not None:
            c.tracer.migration_started(m)
        # 1. open the dual-write window *before* quiescing: every write
        #    admitted from this instant on reaches the destination too.
        c.dual_writes[range_idx] = (src, dst)
        # 2. quiesce pre-window in-flight requests to the range.
        c.when_drained(
            c.inflight_in([range_idx]), lambda: self._start_copy(m)
        )
        return m

    # ------------------------------------------------------------------
    def _start_copy(self, m: Migration) -> None:
        if m.state == "aborted":
            return  # the quiesce barrier fired after an abort
        c = self.cluster
        m.state = "copying"
        if c.tracer is not None:
            c.tracer.migration_phase(m, "copy")
        src_dev = c.shards[m.src]
        bs = c.block_size
        start = m.range_idx * c.range_blocks
        snapshot = [
            blk for blk in range(start, start + c.range_blocks)
            if blk not in m.dirty
            and src_dev.mapping.lookup(blk * bs) is not None
        ]
        m.snapshot_blocks = len(snapshot)
        self._queues[m.range_idx] = deque(snapshot)
        self._next_chunk(m)

    def _next_chunk(self, m: Migration) -> None:
        queue = self._queues.get(m.range_idx)
        if m.state == "aborted" or queue is None:
            return
        chunk: List[int] = []
        while queue and len(chunk) < self.chunk_blocks:
            blk = queue.popleft()
            if blk in m.dirty:  # superseded since the snapshot
                m.skipped_dirty += 1
                self.stats.skipped_dirty_blocks += 1
                continue
            chunk.append(blk)
        if not chunk:  # the while loop drained the queue
            self._cutover(m)
            return
        remaining = [len(chunk)]

        def _block_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                self._next_chunk(m)

        for blk in chunk:
            self._copy_block(m, blk, _block_done)

    def _copy_block(
        self, m: Migration, blk: int, done: Callable[[], None]
    ) -> None:
        c = self.cluster
        bs = c.block_size
        lba = blk * bs

        def _read_done(_req: IORequest, _lat: float) -> None:
            if m.state == "aborted":
                done()
                return
            if blk in m.dirty:
                # A foreground write landed while our source read was in
                # flight; its dual-write already put the newer version on
                # the destination — writing the stale copy would lose it.
                m.skipped_dirty += 1
                self.stats.skipped_dirty_blocks += 1
                done()
                return
            wreq = IORequest(c.sim.now, WRITE, lba, bs)
            c.register_internal(wreq, _write_done)
            if c.tracer is not None:
                c.tracer.copy_io(m, wreq)
            c.shards[m.dst].submit(wreq)

        def _write_done(_req: IORequest, _lat: float) -> None:
            if m.state == "aborted":
                done()
                return
            m.copied_blocks += 1
            m.copied_bytes += bs
            self.stats.copied_blocks += 1
            self.stats.copied_bytes += bs
            done()

        rreq = IORequest(c.sim.now, READ, lba, bs)
        c.register_internal(rreq, _read_done)
        if c.tracer is not None:
            c.tracer.copy_io(m, rreq)
        c.shards[m.src].submit(rreq)

    # ------------------------------------------------------------------
    def _cutover(self, m: Migration) -> None:
        if m.state == "aborted":
            return
        c = self.cluster
        # 4. atomic reroute: from this instant every new request for the
        #    range goes to the destination; the window closes.
        c.replication.cutover(m.range_idx, m.src, m.dst)
        del c.dual_writes[m.range_idx]
        m.state = "cleanup"
        if c.tracer is not None:
            c.tracer.migration_phase(m, "cleanup")
        # 5. drain in-flight source reads, then drop the stale copy.
        c.when_drained(
            c.inflight_in([m.range_idx]), lambda: self._cleanup(m)
        )

    def _cleanup(self, m: Migration) -> None:
        if m.state == "aborted":
            return  # the drain barrier fired after an abort
        c = self.cluster
        src_dev = c.shards[m.src]
        dropped = src_dev.discard(
            m.range_idx * c.range_bytes, c.range_bytes
        )
        self.stats.discarded_source_blocks += dropped
        m.state = "done"
        m.finished_at = c.sim.now
        del self.active[m.range_idx]
        del self._queues[m.range_idx]
        self.completed.append(m)
        self.stats.completed += 1
        if c.tracer is not None:
            c.tracer.migration_done(m)
        if m.on_done is not None:
            m.on_done(m)
