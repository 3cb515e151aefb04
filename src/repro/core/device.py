"""The EDC block device (paper Fig 4): the layer below the file system.

Ties the three functional modules together on the I/O path:

**Write path** — arrival → Workload Monitor update → Sequentiality
Detector merge/flush → policy codec selection at the observed intensity
→ Compression Engine (gate, compress, 75 % rule) on the host CPU queue →
size-class allocation + mapping update → Request Distributer write of
the stored bytes → per-request response time recorded at device
completion.

**Read path** — arrival → SD flush (reads break write contiguity) →
mapping resolution of every covered block → Distributer reads of the
stored (compressed) bytes → decompression on the host CPU queue →
response recorded when all pieces finish.

The same device class runs every scheme in the paper's evaluation; only
the :class:`~repro.core.policy.CompressionPolicy` and a couple of config
flags differ, which is what makes the comparisons apples-to-apples.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.compression.codec import CodecError, CodecRegistry, default_registry
from repro.compression.costmodel import CodecCostModel
from repro.core.config import EDCConfig
from repro.core.engine import CompressionEngine, WritePlan
from repro.core.monitor import WorkloadMonitor
from repro.core.policy import CompressionPolicy
from repro.core.sequential import PendingRun, SequentialityDetector
from repro.core.stats import CompressionStats
from repro.core.distributer import RequestDistributer
from repro.flash.allocator import SizeClassAllocator, SlotClass
from repro.flash.introspect import ftls_of
from repro.flash.mapping import MappingEntry, MappingTable
from repro.flash.ssd import StorageBackend
from repro.sdgen.generator import ContentStore
from repro.sim.engine import EventHandle, Simulator
from repro.sim.events import Emitter
from repro.sim.metrics import LatencyRecorder
from repro.sim.queueing import Server
from repro.traces.model import IORequest


__all__ = ["EDCBlockDevice", "IntegrityError"]

#: Safety timeout (seconds) after which the Sequentiality Detector's
#: pending merged run is flushed even if sequentiality was never broken.
#: The paper's flow (Fig 7) flushes only on a breaking request; an
#: unbounded wait would leave the last burst's tail stuck, so a bound is
#: needed in any real implementation.
SD_FLUSH_TIMEOUT = 0.0001


class IntegrityError(Exception):
    """Read-back data mismatches what was written (corruption detected).

    Raised by verify mode, the per-block CRC check, and the latent
    media-error surface.  A proper :class:`Exception` subclass: data
    corruption is a runtime condition to be counted, escalated or
    repaired, not an assertion failure — in particular it must survive
    ``python -O`` and never be swallowed by test frameworks treating
    :class:`AssertionError` specially.
    """


class EDCBlockDevice:
    """Block-level (de)compression layer over a flash backend."""

    def __init__(
        self,
        sim: Simulator,
        backend: StorageBackend,
        policy: CompressionPolicy,
        content: ContentStore,
        config: Optional[EDCConfig] = None,
        registry: Optional[CodecRegistry] = None,
        cost_model: Optional[CodecCostModel] = None,
        recovery=None,
    ) -> None:
        self.sim = sim
        self.policy = policy
        self.config = config if config is not None else EDCConfig()
        cfg = self.config
        if content.block_size != cfg.block_size:
            raise ValueError(
                f"content store block size {content.block_size} != "
                f"device block size {cfg.block_size}"
            )
        self.content = content
        self.registry = registry if registry is not None else default_registry()
        self.allocator = SizeClassAllocator(cfg.block_size, cfg.size_class_fractions)
        self.engine = CompressionEngine(
            content,
            registry=self.registry,
            cost_model=cost_model,
            incompressible_fraction=self.allocator.incompressible_fraction,
            keep_payloads=cfg.verify_reads,
        )
        self.monitor = WorkloadMonitor(cfg.monitor_window, cfg.block_size)
        self.sd: Optional[SequentialityDetector] = (
            SequentialityDetector(cfg.block_size) if cfg.sd_enabled else None
        )
        #: the host compresses on one CPU thread
        self.cpu = Server(sim, name="host-cpu")
        self.distributer = RequestDistributer(backend)
        self.mapping = MappingTable(cfg.block_size)
        self.stats = CompressionStats()
        self.write_latency = LatencyRecorder("write")
        self.read_latency = LatencyRecorder("read")
        #: requests the backend reported as lost (e.g. a RAID double
        #: fault); they still complete — with the loss counted — so a
        #: replay drains instead of deadlocking on ``outstanding``
        self.unrecovered_reads = 0
        self.unrecovered_writes = 0
        #: host reads that hit latently corrupted media (CRC mismatch on
        #: the device read) — background media scrub exists to keep this
        #: at zero
        self.corrupt_reads = 0
        #: cached media-CRC oracle of the backend (queried once per
        #: mapped read, so the lookup is hoisted out of the hot path)
        self._latent_query = backend.latent_corrupt

        #: optional per-request completion hook ``(request, latency) ->
        #: None`` called once when a submitted request fully completes
        #: (all read pieces done / the merged write run programmed).
        #: The cluster tier uses it for per-tenant latency attribution;
        #: ``None`` (the default) keeps the hot path untouched and the
        #: replay bit-identical.  It fires inside existing completion
        #: events and never schedules, so attaching it cannot perturb
        #: simulated time.
        self.on_request_complete = None

        #: optional per-request *error* hook ``(request, exc) -> None``.
        #: When set, a request whose device I/O failed unrecoverably is
        #: escalated here **instead of** being absorbed into the
        #: ``unrecovered_*`` counters and completed through
        #: ``on_request_complete`` — the cluster tier uses it to fail
        #: over to a replica or charge the tenant's unrecovered count.
        #: ``None`` (the default) keeps the PR 3 absorb-and-count
        #: semantics bit-identical.
        self.on_request_error = None

        #: per-block content version counters (bumped on every overwrite)
        self._versions: Dict[int, int] = defaultdict(int)
        #: entry id -> (content run ids, codec name) for reads/verification
        self._entry_meta: Dict[int, Tuple[Tuple[int, ...], str]] = {}
        self._sd_timer: Optional[EventHandle] = None
        self._outstanding = 0

        #: the request-lifecycle event source (the ``device`` kinds of
        #: :data:`repro.sim.events.VOCABULARY`).  Handlers only record:
        #: they fire inside existing events and never schedule.
        self.events = Emitter("device")
        #: whatever attached itself to this stack, by role name, so one
        #: observer can find another and the time-series sampler can
        #: gate its metric families — the device never reads it
        self.observers: Dict[str, object] = {}
        # Bad-block retirements below shrink the allocator's capacity.
        # The handler holds the allocator, not the device: the backend
        # must not keep the stack (and its content store) alive.
        allocator = self.allocator

        def _block_retired(ftl, block_id: int, moved: int) -> None:
            allocator.note_retired(ftl.geometry.block_bytes)

        for ftl in ftls_of(backend):
            ftl.events.subscribe("retire", _block_retired)

        #: optional :class:`~repro.recovery.durable.DurableMetadataManager`;
        #: ``None`` (the default) keeps metadata volatile — no journal or
        #: checkpoint writes — and the replay bit-identical to the seed.
        self.recovery = recovery
        if recovery is not None:
            recovery.bind_device(self)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Requests submitted but not yet fully completed."""
        return self._outstanding

    @property
    def backend(self):
        """The storage backend below the distributer (SSD or array)."""
        return self.distributer.backend

    def submit(self, request: IORequest) -> None:
        """Process one request arriving *now* (``sim.now``)."""
        self.monitor.record(
            self.sim.now, request.op, request.nbytes, lba=request.lba
        )
        if self.events.subs:
            self.events.emit("request", request)
        if request.is_write:
            self._on_write(request)
        else:
            self._on_read(request)

    def flush(self) -> None:
        """End of stream: compress and write any run still pending in SD."""
        if self.sd is not None:
            for run in self.sd.flush_all():
                self._process_run(run)
        self._cancel_sd_timer()

    def set_version_floor(self, blk: int, version: int) -> None:
        """Raise block ``blk``'s content-version counter to at least ``version``.

        Used by cluster re-replication when a rebuilt replica joins: the
        destination's per-block counters must agree with the fleet-wide
        write history so that future overwrites keep producing the same
        synthetic content on every replica.  Never lowers a counter.
        """
        if self._versions[blk] < version:
            self._versions[blk] = version

    def version_of(self, blk: int) -> int:
        """Content version of logical block ``blk`` (0 = never written)."""
        return self._versions.get(blk, 0)

    def install_extent(
        self, entry: MappingEntry, run_ids: Tuple[int, ...], codec_name: str
    ) -> Tuple[int, SlotClass, Tuple[int, ...]]:
        """Map ``entry``, give it a size-class slot and record how to read it.

        The one place a stored unit enters the device's tables: the
        mapping insert, the release of the entries it fully shadows, the
        slot and the read metadata move together.  Returns ``(entry id,
        slot class, shadowed ids)``.  Nothing is programmed or
        journaled: writers do that around this call; recovery seeding,
        whose extents are durable already, does not.
        """
        eid, shadowed = self.mapping.insert(entry)
        shadowed_ids = tuple([old_id for old_id, _old in shadowed])
        if shadowed_ids:
            self._release(shadowed_ids)
        cls = self.allocator.allocate(eid, entry.size, entry.original_size)
        self._entry_meta[eid] = (run_ids, codec_name)
        return eid, cls, shadowed_ids

    def entry_decodes(self, eid: int) -> bool:
        """Whether entry ``eid``'s stored form decodes to its content bytes."""
        entry = self.mapping.get(eid)
        meta = self._entry_meta.get(eid)
        if entry is None or meta is None:
            return False
        return self._decodes(*meta, entry.original_size)

    def ingest_replica(
        self,
        lba: int,
        nbytes: int,
        versions: Tuple[int, ...],
        ref: Optional[IORequest] = None,
    ) -> None:
        """Store a replica copy of ``[lba, lba+nbytes)`` at explicit versions.

        Cluster rebuild path: unlike :meth:`submit`, this bypasses
        sequentiality detection and does *not* bump the per-block version
        counters — the caller supplies the fleet-wide version of each
        covered block, and the counters are floored to those values so
        the ingested content is byte-identical to the source replica's.
        The write is charged honestly (compression CPU, device program,
        WA, energy) through the normal commit path; completion or error
        is reported through ``on_request_complete``/``on_request_error``
        against ``ref``.
        """
        bs = self.config.block_size
        lba, nbytes = self._align(lba, nbytes)
        start_blk = lba // bs
        nblocks = nbytes // bs
        if len(versions) != nblocks:
            raise ValueError(
                f"ingest_replica: {nblocks} blocks but {len(versions)} versions"
            )
        for i, v in enumerate(versions):
            if v < 1:
                raise ValueError(f"ingest_replica: version {v} for block "
                                 f"{start_blk + i} must be >= 1")
            self.set_version_floor(start_blk + i, v)
        self._outstanding += 1
        run = PendingRun(lba, nbytes, [self.sim.now], [ref])
        vtuple = tuple(versions)
        run_ids, _hint, _codec, plan = self._plan_run(start_blk, vtuple)
        self._after_cpu(
            plan, ("ingest", start_blk),
            self._commit_write, run, plan, run_ids, vtuple, False,
        )

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def _align(self, lba: int, nbytes: int) -> Tuple[int, int]:
        """Round a byte range out to whole logical blocks."""
        bs = self.config.block_size
        start = (lba // bs) * bs
        end = ((lba + nbytes + bs - 1) // bs) * bs
        return start, end - start

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _on_write(self, request: IORequest) -> None:
        self._outstanding += 1
        lba, nbytes = self._align(request.lba, request.nbytes)
        if self.sd is not None:
            for run in self.sd.on_write(lba, nbytes, self.sim.now, ref=request):
                self._process_run(run)
            self._arm_sd_timer()
        else:
            self._process_run(PendingRun(lba, nbytes, [self.sim.now], [request]))

    def _arm_sd_timer(self) -> None:
        self._cancel_sd_timer()
        if self.sd is not None and self.sd.pending is not None:
            self._sd_timer = self.sim.schedule(
                SD_FLUSH_TIMEOUT, self._sd_timeout_fired
            )

    def _cancel_sd_timer(self) -> None:
        if self._sd_timer is not None:
            self.sim.cancel(self._sd_timer)
            self._sd_timer = None

    def _sd_timeout_fired(self) -> None:
        self._sd_timer = None
        if self.sd is not None:
            for run in self.sd.flush_timeout():
                self._process_run(run)

    def plan_for_policy(
        self,
        policy: CompressionPolicy,
        run_ids: Tuple[int, ...],
        iops: float,
        hint: Optional[str],
    ) -> Tuple[Optional[str], WritePlan, bool]:
        """Consult ``policy`` and plan a run's stored form at ``iops``.

        Returns ``(selected codec, plan, codec_fallback)`` without
        touching device statistics or simulator state, so the decision
        audit can run shadow policies through the exact decision logic
        the live path uses (intensity band, gate, hint exemption, 75 %
        rule, raw fallback on codec failure).
        """
        codec_name = policy.select_codec(iops, hint)
        gate = policy.uses_gate and self.config.compressibility_gate
        if gate and hint is not None and policy.gate_exempt(hint):
            # The hint already settles compressibility: skip the
            # sampled estimation and its CPU cost.
            gate = False
        try:
            plan = self.engine.plan_write(run_ids, codec_name, gate)
            fallback = False
        except CodecError:
            # A codec failure mid-write must not lose the data: fall
            # back to storing the run raw (no gate — raw always "fits").
            plan = self.engine.plan_write(run_ids, None, gate=False)
            fallback = True
        return codec_name, plan, fallback

    def _plan_run(
        self, start_blk: int, versions: Tuple[int, ...]
    ) -> Tuple[Tuple[int, ...], Optional[str], Optional[str], WritePlan]:
        """Plan the blocks from ``start_blk`` on, at ``versions``, under the
        policy: ``(content ids, hint, selected codec, plan)``."""
        bs = self.config.block_size
        run_ids = tuple(
            self.content.block_id((start_blk + i) * bs, v)
            for i, v in enumerate(versions)
        )
        iops = self.monitor.calculated_iops(self.sim.now)
        hint = (
            self.content.kind_of_id(run_ids[0])
            if self.config.semantic_hints
            else None
        )
        codec_name, plan, fallback = self.plan_for_policy(
            self.policy, run_ids, iops, hint
        )
        if fallback:
            self.stats.codec_fallbacks += 1
        return run_ids, hint, codec_name, plan

    def _after_cpu(self, plan: WritePlan, tag: tuple, commit, *args) -> None:
        """Call ``commit(*args, job)`` once ``plan``'s CPU time is served; a
        plan that costs none (every Native write) commits at once, no job."""
        if plan.cpu_time > 0:
            self.cpu.submit(
                plan.cpu_time,
                on_complete=lambda job: commit(*args, job),
                tag=tag,
            )
        else:
            commit(*args, None)

    def _process_run(self, run: PendingRun) -> None:
        """Compress (maybe) and store one flush unit."""
        bs = self.config.block_size
        start_blk = run.start_lba // bs
        nblocks = (run.nbytes + bs - 1) // bs
        versions = []
        for i in range(nblocks):
            blk = start_blk + i
            self._versions[blk] += 1
            versions.append(self._versions[blk])
        vtuple = tuple(versions)
        run_ids, hint, codec_name, plan = self._plan_run(start_blk, vtuple)
        if plan.gated:
            self.stats.skipped_incompressible += 1
        if plan.failed_75pct:
            self.stats.failed_75pct += 1
        if plan.policy_raw and codec_name is None and self.policy.name != "Native":
            self.stats.skipped_intensity += 1

        observed = bool(self.events.subs)
        if observed:
            self.events.emit(
                "write_planned", run, run_ids, hint, codec_name, plan
            )
        self._after_cpu(
            plan, ("compress", start_blk),
            self._commit_write, run, plan, run_ids, vtuple, observed,
        )

    def _block_crcs_for(self, run_ids: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        """Per-block content CRCs for a run, when ``crc_checks`` is on."""
        if not self.config.crc_checks:
            return None
        from repro.recovery.formats import block_crcs

        return block_crcs(
            self.content.data_for_run(run_ids), self.config.block_size
        )

    def _release(self, eids) -> None:
        """Give up the slot, backend extent and read metadata of entries the
        mapping dropped (shadowed or trimmed): :meth:`install_extent` undone."""
        for eid in eids:
            self.allocator.free(eid)
            self.distributer.trim(eid)
            self._entry_meta.pop(eid, None)

    def _store(
        self,
        run: PendingRun,
        plan: WritePlan,
        run_ids: Tuple[int, ...],
        versions: Tuple[int, ...],
    ) -> Tuple[int, SlotClass]:
        """Install ``run``'s planned stored form; its program is now due."""
        entry = MappingEntry(
            lba=run.start_lba,
            size=plan.payload_size,
            tag=plan.tag,
            span=len(run_ids),
            original_size=plan.original_size,
            crc=self._block_crcs_for(run_ids),
        )
        eid, cls, shadowed = self.install_extent(entry, run_ids, plan.codec_name)
        if self.recovery is not None:
            self.recovery.on_insert(
                eid, entry, run_ids, plan.codec_name, versions, shadowed,
                cls.nbytes,
            )
        return eid, cls

    def _program(
        self, eid: int, lba: int, nbytes: int, done, failed, stream: int = 0
    ) -> None:
        """Issue entry ``eid``'s device write: ``done()`` or ``failed(exc)``."""

        def _programmed() -> None:
            # Program completed: only now does the extent's metadata
            # become durable (journal + OOB) — a cut mid-program leaves
            # nothing, which is what makes merged runs all-or-nothing.
            if self.recovery is not None:
                self.recovery.on_programmed(eid)
            done()

        self.distributer.write(
            eid, lba, nbytes, _programmed, stream=stream, on_error=failed
        )

    def _commit_write(
        self,
        run: PendingRun,
        plan: WritePlan,
        run_ids: Tuple[int, ...],
        versions: Tuple[int, ...],
        observed: bool,
        job: object,
    ) -> None:
        """Compression finished: store the run and issue the device write.

        ``observed`` says the run was announced as ``write_planned``
        (host writes with a subscriber); replica ingests are not, so
        they emit none of the ``write_*`` kinds.
        """
        events = self.events
        if observed:
            events.emit("write_cpu_done", run, job)
        nblocks = len(run_ids)
        eid, cls = self._store(run, plan, run_ids, versions)
        if observed:
            events.emit("write_committed", run, cls)
        self.stats.note_write(
            codec_name=plan.codec_name,
            logical=plan.original_size,
            payload=plan.payload_size,
            stored=cls.nbytes,
            compressed=plan.is_compressed,
            merged=nblocks > 1,
        )
        arrivals = list(run.arrivals)
        refs = list(run.refs)

        def _finish(exc: Optional[BaseException] = None) -> None:
            now = self.sim.now
            hook = self.on_request_complete
            err_hook = self.on_request_error
            if exc is not None and err_hook is None:
                # Nobody to escalate to: count the loss, complete anyway.
                self.unrecovered_writes += 1
            for i, arrival in enumerate(arrivals):
                self.write_latency.add(now - arrival)
                self._outstanding -= 1
                ref = refs[i] if i < len(refs) else None
                if ref is None:
                    continue
                if exc is not None and err_hook is not None:
                    err_hook(ref, exc)
                elif hook is not None:
                    hook(ref, now - arrival)
            if observed:
                events.emit("write_done", run)

        stream = 0
        if self.config.hot_cold_streams:
            start_blk = run.start_lba // self.config.block_size
            hottest = max(
                self._versions[start_blk + i] for i in range(nblocks)
            )
            stream = 1 if hottest >= self.config.hot_version_threshold else 0
        # Bracket the synchronous issue so an SSD ``service`` event can
        # be attributed to this write's service and GC stall.
        if observed:
            events.emit("write_issue_begin", run, eid)
        try:
            self._program(eid, run.start_lba, cls.nbytes, _finish, _finish, stream)
        finally:
            if observed:
                events.emit("write_issue_end", run)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _on_read(self, request: IORequest) -> None:
        self._outstanding += 1
        if self.sd is not None:
            for run in self.sd.on_read():
                self._process_run(run)
            self._cancel_sd_timer()
        lba, nbytes = self._align(request.lba, request.nbytes)
        pieces = self._resolve_read(lba, nbytes)
        arrival = self.sim.now
        remaining = [len(pieces)]
        errors: List[BaseException] = []
        observed = bool(self.events.subs)
        if observed:
            self.events.emit("read_started", request)

        def _piece_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                self.read_latency.add(self.sim.now - arrival)
                self._outstanding -= 1
                if observed:
                    self.events.emit(
                        "read_done", request, self.sim.now - arrival
                    )
                if errors and self.on_request_error is not None:
                    self.on_request_error(request, errors[0])
                elif self.on_request_complete is not None:
                    self.on_request_complete(request, self.sim.now - arrival)

        for piece in pieces:
            self._issue_read_piece(piece, request, _piece_done, observed, errors)

    def _resolve_read(
        self, lba: int, nbytes: int
    ) -> List[Tuple[Optional[int], int, int]]:
        """Split an aligned read into (entry_id | None, lba, nbytes) pieces.

        Blocks resolving to the same mapping entry coalesce into one
        piece (the whole entry is fetched once); runs of unmapped blocks
        coalesce into raw reads.
        """
        bs = self.config.block_size
        pieces: List[Tuple[Optional[int], int, int]] = []
        seen_entries: set[int] = set()
        raw_start: Optional[int] = None
        raw_len = 0
        for blk in range(lba // bs, (lba + nbytes) // bs):
            hit = self.mapping.lookup(blk * bs)
            if hit is None:
                if raw_start is None:
                    raw_start = blk * bs
                raw_len += bs
                continue
            if raw_start is not None:
                pieces.append((None, raw_start, raw_len))
                raw_start, raw_len = None, 0
            eid, _entry = hit
            if eid not in seen_entries:
                seen_entries.add(eid)
                pieces.append((eid, blk * bs, 0))
        if raw_start is not None:
            pieces.append((None, raw_start, raw_len))
        return pieces

    def _issue_read_piece(
        self,
        piece: Tuple[Optional[int], int, int],
        request: IORequest,
        done,
        observed: bool = False,
        errors: Optional[List[BaseException]] = None,
    ) -> None:
        eid, lba, raw_len = piece

        def _piece_error(exc: BaseException) -> None:
            if errors is not None and self.on_request_error is not None:
                errors.append(exc)
            else:
                self.unrecovered_reads += 1
            done()

        if eid is None:
            # Unmapped (never-written) range: raw-size device read.
            if observed:
                self.events.emit("read_issue", request, lba)
            self.distributer.read(None, lba, raw_len, done, on_error=_piece_error)
            return
        entry = self.mapping.get(eid)
        if entry is None:  # pragma: no cover - defensive
            raise RuntimeError(f"read resolved to reclaimed entry {eid}")
        stored = max(1, entry.size)
        # Snapshot the metadata now: a concurrent overwrite may shadow the
        # entry before the device read completes, but out-of-place updates
        # keep the old extent's data readable until GC reclaims it.
        run_ids, codec_name = self._entry_meta[eid]

        def _after_device() -> None:
            dec = self.engine.decompress_time(codec_name, entry.original_size)
            if self._latent_query(eid):
                # Latent media corruption: the transfer "succeeded" but
                # the device-level CRC over the stored payload mismatches.
                # Surfaced as a counted read error (IntegrityError), not a
                # ReadFaultError — retries cannot fix rotted charge.
                self.corrupt_reads += 1
                _piece_error(
                    IntegrityError(
                        f"read of lba {request.lba}: stored payload of "
                        f"entry {eid} failed the media CRC check "
                        f"(latent corruption)"
                    )
                )
                return
            if self.config.verify_reads and not self._decodes(
                run_ids, codec_name, entry.original_size
            ):
                raise IntegrityError(
                    f"read of lba {request.lba} (codec {codec_name}) "
                    f"returned corrupt data"
                )
            if entry.crc is not None and self.config.crc_checks:
                actual = self._block_crcs_for(run_ids)
                if actual != entry.crc:
                    raise IntegrityError(
                        f"read of lba {request.lba}: stored block CRCs "
                        f"{entry.crc} do not match content {actual}"
                    )
            if dec > 0:

                def _dec_done(job) -> None:
                    if observed:
                        self.events.emit("read_decompressed", request, job)
                    done()

                self.cpu.submit(dec, on_complete=_dec_done,
                                tag=("decompress", eid))
            else:
                done()

        if observed:
            self.events.emit("read_issue", request, eid)
        self.distributer.read(
            eid, entry.lba, stored, _after_device, on_error=_piece_error
        )

    def _decodes(
        self, run_ids: Tuple[int, ...], codec_name: str, original_size: int
    ) -> bool:
        """Whether a run stored under ``codec_name`` decodes to its content.

        By value, not by entry id: a read checks the snapshot it took at
        issue, since an overwrite can release the entry before it lands.
        """
        if codec_name in (None, "none"):
            return True  # raw storage is bit-identical by construction
        codec = self.registry.get(codec_name)
        payload = self.content.compressed_payload(run_ids, codec)
        return (codec.decompress(payload, original_size)
                == self.content.data_for_run(run_ids))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def discard(self, lba: int, nbytes: int) -> int:
        """Drop the mappings covering ``[lba, lba + nbytes)`` (block-level trim).

        Every covered block is unmapped; entries whose blocks all died
        are freed from the allocator and trimmed on the backend, exactly
        like shadowing by an overwrite.  Entries only partially inside
        the range keep their storage until their remaining blocks die
        (overlay semantics).  Returns the number of blocks that were
        actually mapped — the caller's *effective* trim count.

        Discards are metadata-only and instantaneous (no device time is
        charged, matching :meth:`RequestDistributer.trim`).  They are
        not journaled, so a device with a bound
        :class:`~repro.recovery.DurableMetadataManager` refuses them.
        """
        if self.recovery is not None:
            raise RuntimeError(
                "discard is not journaled; detach the recovery manager first"
            )
        lba, nbytes = self._align(lba, nbytes)
        bs = self.config.block_size
        unmapped = 0
        for blk in range(lba // bs, (lba + nbytes) // bs):
            if self.mapping.lookup(blk * bs) is None:
                continue
            unmapped += 1
            self._release(eid for eid, _entry in self.mapping.remove(blk * bs))
        return unmapped

    def rewrite_entry(
        self,
        eid: int,
        codec_name: Optional[str] = "gzip",
        keep_codec: bool = False,
        on_stored=None,
    ) -> int:
        """Rewrite entry ``eid``'s still-live blocks as fresh extents.

        The relocation primitive of the media scrub's self-healing repair
        (re-place a corrupted extent from known-good content); it also
        frees a merged run's zombie space.  The live blocks are
        re-planned, re-compressed and written through the normal device
        path — CPU, program time, WA and energy are all
        charged — and the new insert shadows the old extent, whose
        storage is then trimmed on the backend.

        ``keep_codec`` re-encodes with the entry's original codec
        (overriding ``codec_name``), preserving the stored shape;
        ``on_stored`` is called with each sub-run's stored (allocated)
        byte count at commit, the hook media scrub uses to account
        repair bytes exactly.  Returns the number of sub-run writes
        issued (0 when the entry is gone or fully shadowed).
        """
        bs = self.config.block_size
        meta = self._entry_meta.get(eid)
        entry = self.mapping.get(eid)
        if meta is None or entry is None:
            return 0
        run_ids, old_codec = meta
        if keep_codec:
            codec_name = None if old_codec in (None, "none") else old_codec
        start_blk = self.mapping.block_of(entry.lba)
        blocks = self.mapping.covered_blocks_of(eid)
        if not blocks:
            return 0
        # Coalesce the surviving blocks into contiguous sub-runs and
        # rewrite each at its *current* content version.
        runs: List[List[int]] = [[blocks[0], 1]]
        for blk in blocks[1:]:
            s, length = runs[-1]
            if blk == s + length:
                runs[-1][1] += 1
            else:
                runs.append([blk, 1])
        issued = 0
        for s, length in runs:
            sub_ids = tuple(run_ids[s - start_blk + i] for i in range(length))
            plan = self.engine.plan_write(sub_ids, codec_name, gate=False)
            self._outstanding += 1
            synthetic = PendingRun(s * bs, length * bs, [self.sim.now], [None])
            issued += 1
            self._after_cpu(
                plan, ("rewrite", s),
                self._commit_rewrite, synthetic, plan, sub_ids, eid, on_stored,
            )
        return issued

    def _commit_rewrite(
        self,
        run: PendingRun,
        plan: WritePlan,
        run_ids: Tuple[int, ...],
        old_eid: int,
        on_stored,
        _job: object,
    ) -> None:
        """Store a rewritten sub-run: the logical data is unchanged, only
        re-placed, so no version bumps, write statistics or events."""
        # A host write may have overwritten part of this range while the
        # rewrite compression was queued; re-inserting stale data over it
        # would corrupt the mapping, so skip the sub-run in that case.
        start_blk = run.start_lba // self.config.block_size
        blocks = range(start_blk, start_blk + len(run_ids))
        if not set(self.mapping.covered_blocks_of(old_eid)).issuperset(blocks):
            self._outstanding -= 1
            return
        # Still owned, so nothing newer was committed: the versions stand.
        eid, cls = self._store(
            run, plan, run_ids, tuple(self._versions[blk] for blk in blocks)
        )
        if on_stored is not None:
            on_stored(cls.nbytes)

        def _settled(exc: Optional[BaseException] = None) -> None:
            if exc is not None:
                self.unrecovered_writes += 1
            self._outstanding -= 1

        self._program(eid, run.start_lba, cls.nbytes, _settled, _settled)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def compression_ratio(self) -> float:
        return self.stats.compression_ratio

    def mean_response_time(self) -> float:
        """Mean response over all requests (the paper's headline metric)."""
        n = self.write_latency.count + self.read_latency.count
        if n == 0:
            return 0.0
        return (self.write_latency.total() + self.read_latency.total()) / n
