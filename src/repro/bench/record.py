"""The one record every graded run returns.

:func:`~repro.bench.chaos.run_chaos`,
:func:`~repro.bench.crash.run_crash_chaos` and
:func:`~repro.bench.cluster.run_cluster` drive three different
choreographies (run to completion, cut at an instant, replay a fleet)
but leave the same evidence behind: what was asked for, what came out,
what went wrong, and one verdict from :mod:`repro.bench.verdicts`.
Each harness module's ``render(record)`` is a pure function of it, and
``python -m repro.bench --record PATH`` writes it as JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench import verdicts

__all__ = ["RECORD_SCHEMA", "RunRecord"]

#: current record serialisation schema; bump on incompatible change.
RECORD_SCHEMA = 1

#: the fields ``to_json`` writes (``live`` stays in the process)
_SERIALISED = ("kind", "scenario", "results", "sections", "verdict", "failures")


@dataclass
class RunRecord:
    """Inputs, evidence and verdict of one graded run.

    ``scenario``, ``results`` and ``sections`` hold JSON values only
    (checked at construction), so ``from_json(r.to_json()) == r``.
    ``live`` carries the handles a caller may want afterwards (the
    fleet's :class:`~repro.cluster.ClusterOutcome`, its tracer, the
    device); it is neither serialised nor compared.
    """

    #: which harness produced it: ``chaos`` | ``crash`` | ``cluster``
    kind: str
    #: the run's inputs (trace, backend, sizes, the fault plan)
    scenario: Dict[str, object]
    #: flat scalar outcomes
    results: Dict[str, object]
    #: named evidence blocks; a block the run did not produce is absent
    sections: Dict[str, object]
    #: the most severe thing that happened (:mod:`repro.bench.verdicts`)
    verdict: str
    #: invariant violations, in words
    failures: List[str] = field(default_factory=list)
    live: Dict[str, object] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        verdicts.exit_code(self.verdict)  # raises on an unknown verdict
        for name in ("scenario", "results", "sections"):
            setattr(self, name, json.loads(json.dumps(getattr(self, name))))

    @property
    def exit_code(self) -> int:
        return verdicts.exit_code(self.verdict)

    @property
    def ok(self) -> bool:
        return self.verdict == verdicts.RECOVERED

    def to_json(self) -> str:
        doc = {name: getattr(self, name) for name in _SERIALISED}
        doc.update(schema=RECORD_SCHEMA, exit_code=self.exit_code)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        doc = json.loads(text)
        if doc.get("schema") != RECORD_SCHEMA:
            raise ValueError(
                f"unsupported run-record schema {doc.get('schema')!r}; "
                f"this build reads schema {RECORD_SCHEMA}"
            )
        return cls(**{name: doc[name] for name in _SERIALISED})

