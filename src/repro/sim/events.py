"""The device stack's one event seam: multi-subscriber emitters.

Every observed component (:class:`~repro.core.device.EDCBlockDevice`,
:class:`~repro.core.monitor.WorkloadMonitor`,
:class:`~repro.core.policy.ElasticPolicy`,
:class:`~repro.flash.ftl.ExtentFTL`,
:class:`~repro.flash.ssd.SimulatedSSD`,
:class:`~repro.sim.queueing.Server`) owns exactly one :class:`Emitter`
as ``.events``.  Observers subscribe handlers to named kinds; the
component emits positional payloads.  The vocabulary is closed and
declared once, in :data:`VOCABULARY`.

Two properties hold by construction rather than per feature:

- **disabled is identical** — with nothing subscribed ``events.subs`` is
  an empty dict, and every emit site is guarded by ``if events.subs:``,
  so an unobserved component pays one truth test and runs no observer
  code at all;
- **attach order does not matter** — any number of handlers share a
  kind, none replaces or wraps another, and handlers only record.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

__all__ = ["VOCABULARY", "Emitter"]

#: component -> (emitting module, {kind: positional payload}).  Checked
#: against the table in ``docs/API.md`` by the test suite.
VOCABULARY: Dict[str, Tuple[str, Dict[str, Tuple[str, ...]]]] = {
    "device": ("repro.core.device", {
        "request": ("request",),
        "write_planned": ("run", "run_ids", "hint", "selected_codec", "plan"),
        "write_cpu_done": ("run", "job"),
        "write_committed": ("run", "size_class"),
        "write_issue_begin": ("run", "key"),
        "write_issue_end": ("run",),
        "write_done": ("run",),
        "read_started": ("request",),
        "read_issue": ("request", "key"),
        "read_decompressed": ("request", "job"),
        "read_done": ("request", "latency"),
    }),
    "monitor": ("repro.core.monitor", {
        "record": ("time", "op", "lba", "pages"),
    }),
    "policy": ("repro.core.policy", {
        "select": ("band_index", "calculated_iops"),
    }),
    "ftl": ("repro.flash.ftl", {
        "gc": ("ftl", "victim", "moved", "reclaimed"),
        "retire": ("ftl", "block_id", "moved"),
    }),
    "ssd": ("repro.flash.ssd", {
        "write_service": ("key", "service", "gc_stall"),
    }),
    "server": ("repro.sim.queueing", {
        "job": ("job",),
    }),
}


class Emitter:
    """The event source of one component of the device stack."""

    __slots__ = ("component", "subs")

    def __init__(self, component: str) -> None:
        if component not in VOCABULARY:
            raise ValueError(
                f"unknown component {component!r}; known: {sorted(VOCABULARY)}"
            )
        self.component = component
        #: kind -> handlers, in subscription order.  Empty (falsy) until
        #: the first subscription: emit sites test it before emitting.
        self.subs: Dict[str, List[Callable[..., None]]] = {}

    def subscribe(self, kind: str, handler: Callable[..., None]) -> None:
        """Call ``handler(*payload)`` on every ``kind`` event from now on."""
        kinds = VOCABULARY[self.component][1]
        if kind not in kinds:
            raise ValueError(
                f"{self.component} emits no {kind!r} event; known: {sorted(kinds)}"
            )
        self.subs.setdefault(kind, []).append(handler)

    def emit(self, kind: str, *payload: object) -> None:
        """Call every ``kind`` handler with ``payload``, in subscription order."""
        for handler in self.subs.get(kind, ()):
            handler(*payload)
