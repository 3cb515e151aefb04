"""Semantic (file-type) compression hints — paper §VI future work #1.

The paper's first future-work item: "the file type information can be
incorporated into the EDC design, so that different compression
algorithms are responsible for different data content in different file
types."  This module implements that design point on top of the
intensity-banded policy:

- content known to be **pre-compressed** (media files, archives,
  encrypted data) is written through without even paying the sampled
  estimation cost;
- content known to compress **well and cheaply** (sparse/zero regions)
  always takes the fast codec regardless of load;
- content known to **reward strong compression** (text, source code)
  upgrades to the high-ratio codec whenever the intensity band would
  allow any compression at all;
- unknown content defers entirely to the intensity-banded decision.

Hints arrive per write unit as a free-form content-class string (the
upper layer — a file system that knows extensions, or here the content
store's chunk class) and unknown classes are simply unhinted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.policy import CompressionPolicy, ElasticPolicy

__all__ = ["HintAction", "HintRules", "HintedPolicy", "DEFAULT_HINT_RULES"]

#: Allowed hint actions.
HintAction = str
_ACTIONS = ("skip", "fast", "strong")
#: the high-ratio codec a ``"strong"`` hint upgrades to
STRONG_CODEC = "gzip"


@dataclass(frozen=True)
class HintRules:
    """Maps content-class names to hint actions.

    Actions: ``"skip"`` — store raw, no estimation; ``"fast"`` — always
    use the fast codec; ``"strong"`` — use :data:`STRONG_CODEC` whenever
    the intensity band permits compression at all.  Unlisted classes defer
    to the wrapped intensity policy.
    """

    rules: Dict[str, HintAction] = field(default_factory=dict)
    fast_codec: str = "lzf"

    def __post_init__(self) -> None:
        bad = {a for a in self.rules.values() if a not in _ACTIONS}
        if bad:
            raise ValueError(f"unknown hint actions: {sorted(bad)}; allowed {_ACTIONS}")

    def action_for(self, content_class: Optional[str]) -> Optional[HintAction]:
        if content_class is None:
            return None
        return self.rules.get(content_class)


#: Rules for the chunk classes of :mod:`repro.sdgen.chunks`, matching the
#: paper's file-type intuition (TIF/JPEG/video/sound are non-compressible,
#: §II-B).
DEFAULT_HINT_RULES = HintRules(
    rules={
        "compressed": "skip",
        "random": "skip",
        "zero": "fast",
        "text": "strong",
        "code": "strong",
    }
)


class HintedPolicy(CompressionPolicy):
    """Intensity banding refined by content-class hints.

    Wraps an :class:`~repro.core.policy.ElasticPolicy` (or any policy);
    the hint can force a decision, upgrade it, or defer.
    """

    name = "EDC+hints"

    def __init__(
        self,
        base: Optional[CompressionPolicy] = None,
        rules: HintRules = DEFAULT_HINT_RULES,
    ) -> None:
        self.base = base if base is not None else ElasticPolicy()
        self.rules = rules
        self.hint_decisions: Dict[str, int] = {a: 0 for a in _ACTIONS}
        self.deferred = 0

    @property
    def uses_gate(self) -> bool:
        # The estimator still guards unhinted content.
        return self.base.uses_gate

    @property
    def ladder(self) -> Optional[ElasticPolicy]:
        return self.base.ladder

    def select_codec(
        self, calculated_iops: float, hint: Optional[str] = None
    ) -> Optional[str]:
        action = self.rules.action_for(hint)
        if action is None:
            self.deferred += 1
            return self.base.select_codec(calculated_iops)
        self.hint_decisions[action] += 1
        if action == "skip":
            return None
        base_choice = self.base.select_codec(calculated_iops)
        if base_choice is None:
            # The intensity band says "too busy to compress"; hints never
            # override the load-protection decision.
            return None
        if action == "fast":
            return self.rules.fast_codec
        return STRONG_CODEC

    def gate_exempt(self, hint: Optional[str]) -> bool:
        """True when the hint already settles compressibility, so the
        sampled estimator (and its CPU cost) can be skipped."""
        return self.rules.action_for(hint) is not None
