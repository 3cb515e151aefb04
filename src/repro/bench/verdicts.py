"""The shared verdict vocabulary of every durability/robustness harness.

Three harnesses grade runs — the fault-chaos replay
(:mod:`repro.bench.chaos`), the crash-recovery replay
(:mod:`repro.bench.crash`) and the fleet durability audit
(:mod:`repro.cluster.replication`) — and before this module each
carried its own verdict strings and exit-code mapping (with
*conflicting* codes: crash chaos used 1 for DATA-LOSS and 2 for
CORRUPTION while the fleet audit used 2 for DATA-LOSS).  CI scripts
and humans read these codes; one vocabulary, ordered by severity,
lives here and everything maps through it.

Exit codes (process exit = worst thing that happened):

====== =========== =============================================
code   verdict     meaning
====== =========== =============================================
0      RECOVERED   every injected failure fully healed
1      DEGRADED    running, but redundancy not fully restored
2      DATA-LOSS   an acknowledged write is gone
3      CORRUPTION  stored data is wrong (worse than missing:
                   nothing flags it until something reads it)
====== =========== =============================================

A run that never started is not a verdict: every sub-command of the
``repro.bench`` command line exits :data:`USAGE_ERROR` (64, sysexits'
``EX_USAGE``) when an option is wrong, an input (fault plan, baseline,
audit dump) cannot be read or is invalid, or a dump target cannot be
opened.  All of that is checked before the replay, so a
status in 0-3 always means the run finished and was graded.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "RECOVERED",
    "DEGRADED",
    "DATA_LOSS",
    "CORRUPTION",
    "VERDICTS",
    "EXIT_CODES",
    "USAGE_ERROR",
    "exit_code",
    "severity",
    "worst",
    "grade",
]

RECOVERED = "RECOVERED"
DEGRADED = "DEGRADED"
DATA_LOSS = "DATA-LOSS"
CORRUPTION = "CORRUPTION"

#: every verdict, in increasing order of severity
VERDICTS = (RECOVERED, DEGRADED, DATA_LOSS, CORRUPTION)

#: the single verdict -> process-exit-code mapping used by all harnesses
EXIT_CODES: Dict[str, int] = {v: i for i, v in enumerate(VERDICTS)}

#: exit status of a run refused before it started (never a verdict)
USAGE_ERROR = 64


def exit_code(verdict: str) -> int:
    """The process exit code for ``verdict`` (raises on unknown verdicts)."""
    try:
        return EXIT_CODES[verdict]
    except KeyError:
        raise ValueError(
            f"unknown verdict {verdict!r}; expected one of {VERDICTS}"
        ) from None


def severity(verdict: str) -> int:
    """Rank of ``verdict`` in the severity order (0 = best)."""
    return exit_code(verdict)


def worst(*verdicts: str) -> str:
    """The most severe of the given verdicts (``RECOVERED`` if none)."""
    if not verdicts:
        return RECOVERED
    return max(verdicts, key=severity)


def grade(corruption=False, data_loss=False, degraded=False) -> str:
    """The verdict for a run's evidence, most severe class first.

    Each harness passes what it counts in each class: ``corruption`` is
    wrong bytes stored or served (a host read off corrupt media, an
    unrepairable or still-corrupt extent, recovered metadata that
    contradicts the oracle, a replica failing the byte-exactness
    scrub); ``data_loss`` is an acknowledged write that is gone;
    ``degraded`` is intact data whose redundancy was not restored, or a
    run-level invariant that failed.
    """
    if corruption:
        return CORRUPTION
    if data_loss:
        return DATA_LOSS
    if degraded:
        return DEGRADED
    return RECOVERED
