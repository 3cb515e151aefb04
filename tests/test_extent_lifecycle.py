"""Stateful oracle over the extent lifecycle of one single-SSD device.

Every writer of the mapping (host write, replica ingest, scrub rewrite,
trim) is a rule, interleaved at random with reads and partial
time advances so that commits, programs and releases overlap.  Whenever
the stack has drained, the tables that move together must agree: the
mapping, the allocator's live slots, the read metadata and the FTL's
extents hold the same ids, every structural and space-conservation
invariant passes, and each block's content version equals what the
rules did to it.  The test holds today; it is here so that the next
writer of the mapping keeps it true.
"""

import functools

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.policy import ElasticPolicy
from repro.flash.geometry import NandGeometry
from repro.flash.introspect import space_waterfall
from repro.flash.ssd import SimulatedSSD
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator
from repro.traces.model import IORequest

BS = 4096
#: logical blocks the rules address: few enough that overwrites,
#: shadowing and partially dead merged runs are the common case
NBLOCKS = 40
#: 512 KB raw in 32 KB erase blocks, so a run of a few dozen writes
#: reaches garbage collection
GEOMETRY = NandGeometry(page_size=BS, pages_per_block=8, nblocks=16,
                        op_ratio=0.25)

starts = st.integers(min_value=0, max_value=NBLOCKS - 1)
lengths = st.integers(min_value=1, max_value=6)
codecs = st.sampled_from([None, "lzf", "gzip"])


@functools.lru_cache(maxsize=1)
def content() -> ContentStore:
    """One pool for every example: building it is the expensive part."""
    return ContentStore(ENTERPRISE_MIX, pool_blocks=32, seed=7)


def span(start: int, length: int) -> range:
    return range(start, min(start + length, NBLOCKS))


class ExtentLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.sim = Simulator()
        self.ssd = SimulatedSSD(self.sim, geometry=GEOMETRY)
        cfg = EDCConfig(verify_reads=True, crc_checks=True)
        self.dev = EDCBlockDevice(
            self.sim, self.ssd, ElasticPolicy(), content(), cfg
        )
        #: block -> content version, kept by the rules alone
        self.versions = {}
        #: blocks written and not trimmed since: these must be mapped
        self.must_map = set()

    # -- writers of the mapping ----------------------------------------
    @rule(start=starts, length=lengths)
    def write(self, start, length):
        blocks = span(start, length)
        self.dev.submit(IORequest(self.sim.now, "W", start * BS, len(blocks) * BS))
        for blk in blocks:
            self.versions[blk] = self.versions.get(blk, 0) + 1
        self.must_map.update(blocks)

    @rule(start=starts, length=lengths, ahead=st.integers(0, 2))
    def ingest_replica(self, start, length, ahead):
        # The oracle orders operations by rule, so a run the detector is
        # still holding gets its versions before the ingest floors them.
        self.dev.flush()
        blocks = span(start, length)
        versions = tuple(
            max(1, self.versions.get(blk, 0) + ahead) for blk in blocks
        )
        self.dev.ingest_replica(start * BS, len(blocks) * BS, versions)
        self.versions.update(zip(blocks, versions))
        self.must_map.update(blocks)

    @rule(pick=st.integers(min_value=0), codec=codecs, keep=st.booleans())
    def rewrite_entry(self, pick, codec, keep):
        eids = sorted(self.dev.mapping.entry_ids())
        if eids:
            self.dev.rewrite_entry(eids[pick % len(eids)], codec, keep_codec=keep)

    @rule(start=starts, length=lengths)
    def discard(self, start, length):
        blocks = span(start, length)
        self.dev.discard(start * BS, len(blocks) * BS)
        self.must_map.difference_update(blocks)

    # -- everything else ------------------------------------------------
    @rule(start=starts, length=lengths)
    def read(self, start, length):
        blocks = span(start, length)
        self.dev.submit(IORequest(self.sim.now, "R", start * BS, len(blocks) * BS))

    @rule(dt=st.sampled_from([1e-5, 1e-4, 1e-3, 0.05]))
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @rule()
    def flush(self):
        self.dev.flush()
        self.sim.run()
        self.check_drained()

    def teardown(self):
        self.flush()

    # -- the oracle -----------------------------------------------------
    @invariant()
    def tables_hold_the_same_ids(self):
        """True between any two rules, drained or not: an install or a
        release moves all four tables inside one call, and the space
        waterfall's walk reproduces every term the allocator maintains."""
        dev, ftl = self.dev, self.ssd.ftl
        ids = set(dev.mapping.entry_ids())
        assert {key for key, _cls, _stored in dev.allocator.live_items()} == ids
        assert set(dev._entry_meta) == ids
        assert {k for b in ftl.live_blocks() for k in ftl.live_keys(b)} == ids
        dev.mapping.check_invariants()
        space_waterfall(dev).verify()

    def check_drained(self):
        dev = self.dev
        assert dev.outstanding == 0
        assert dev.unrecovered_writes == dev.unrecovered_reads == 0
        self.ssd.ftl.check_invariants()
        mapped = {
            blk for blk in range(NBLOCKS)
            if dev.mapping.lookup(blk * BS) is not None
        }
        assert self.must_map <= mapped <= set(self.versions)
        for blk in range(NBLOCKS):
            assert dev.version_of(blk) == self.versions.get(blk, 0), blk
        for eid in dev.mapping.entry_ids():
            assert dev.entry_decodes(eid), eid


TestExtentLifecycle = ExtentLifecycle.TestCase
TestExtentLifecycle.settings = settings(
    max_examples=25,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
