"""Crash consistency for the EDC metadata (durable metadata + recovery).

The runtime mapping table, size-class allocator occupancy and content
provenance all live in device RAM; a power cut without this package
would lose every stored extent.  Three durable structures fix that —
periodic checkpoints, a write-ahead journal with a volatile tail, and
per-extent OOB back-pointers — maintained on the write path by the
:class:`DurableMetadataManager` and rebuilt after a cut by the
:class:`RecoveryScanner`.  The :class:`IntegrityTracker` keeps the
ground truth outside the device so the chaos harness can classify every
lost block as *volatile-window* (allowed under write-back semantics) or
*acked-and-lost* (a recovery bug).
"""

from repro.recovery.checkpoint import CheckpointImage, CheckpointStats, CheckpointStore
from repro.recovery.durable import DurableMetadataManager, MetaStats, RecoveryParams
from repro.recovery.formats import (
    CHECKPOINT_ENTRY_BYTES,
    CHECKPOINT_HEADER_BYTES,
    JOURNAL_INSERT_BYTES,
    JOURNAL_RECLAIM_BYTES,
    OOB_RECORD_BYTES,
    SEQNO_BYTES,
    ExtentRecord,
    JournalRecord,
    block_crcs,
)
from repro.recovery.integrity import BlockTruth, IntegrityTracker, VerifyReport
from repro.recovery.journal import JournalStats, MetadataJournal
from repro.recovery.oob import OOBArea, OOBStats
from repro.recovery.scanner import (
    RebuiltState,
    RecoveredState,
    RecoveryReport,
    RecoveryScanner,
    ScrubReport,
    metadata_digest,
)

__all__ = [
    "BlockTruth",
    "CheckpointImage",
    "CheckpointStats",
    "CheckpointStore",
    "DurableMetadataManager",
    "ExtentRecord",
    "IntegrityTracker",
    "JournalRecord",
    "JournalStats",
    "MetaStats",
    "MetadataJournal",
    "OOBArea",
    "OOBStats",
    "RebuiltState",
    "RecoveredState",
    "RecoveryParams",
    "RecoveryReport",
    "RecoveryScanner",
    "ScrubReport",
    "VerifyReport",
    "block_crcs",
    "metadata_digest",
    "CHECKPOINT_ENTRY_BYTES",
    "CHECKPOINT_HEADER_BYTES",
    "JOURNAL_INSERT_BYTES",
    "JOURNAL_RECLAIM_BYTES",
    "OOB_RECORD_BYTES",
    "SEQNO_BYTES",
]
