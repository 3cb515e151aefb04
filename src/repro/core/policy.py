"""Compression policies: who compresses what, when.

The paper compares four *fixed* schemes (Native, Lzf, Gzip, Bzip2) —
which apply one decision to every write regardless of load — against
EDC's *elastic* policy, which selects by I/O-intensity band (§III-D):

- intensity above the top threshold → skip compression entirely;
- high band → low-overhead codec (Lzf);
- low band / idle → high-ratio codec (Gzip).

Thresholds are in calculated IOPS (4 KB-normalised I/Os per second).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.sim.events import Emitter

__all__ = [
    "CompressionPolicy",
    "NativePolicy",
    "FixedPolicy",
    "ElasticPolicy",
    "IntensityBand",
    "DEFAULT_BANDS",
]


@dataclass(frozen=True)
class IntensityBand:
    """One rung of the elastic ladder.

    Applies when calculated IOPS is below ``upper_iops`` (and at or
    above the previous band's bound).  ``codec`` of ``None`` means
    "do not compress".
    """

    upper_iops: float
    codec: Optional[str]


#: Default ladder: gzip when idle-ish, lzf under load, nothing during
#: the heaviest bursts.  Tuned for the X25-E-like simulated device whose
#: write path absorbs moderate bursts but queues past ~4-5k calculated IOPS.
DEFAULT_BANDS: Tuple[IntensityBand, ...] = (
    IntensityBand(250.0, "gzip"),
    IntensityBand(3000.0, "lzf"),
    IntensityBand(float("inf"), None),
)


class CompressionPolicy(ABC):
    """Selects the codec (or no compression) for one write."""

    #: scheme label used in result tables
    name: str = "abstract"

    @abstractmethod
    def select_codec(
        self, calculated_iops: float, hint: Optional[str] = None
    ) -> Optional[str]:
        """Codec name for a write observed at this intensity; ``None`` = raw.

        ``hint`` optionally names the content class of the write (the
        paper's future-work file-type information); base policies ignore
        it, :class:`~repro.core.hints.HintedPolicy` acts on it.
        """

    @property
    def uses_gate(self) -> bool:
        """Whether the compressibility write-through gate applies.

        Only EDC gates; the paper's fixed schemes model products that
        compress every write.
        """
        return False

    @property
    def ladder(self) -> Optional["ElasticPolicy"]:
        """The :class:`ElasticPolicy` whose bands decide, or ``None``.

        Every band observer reads it; a wrapping policy passes on its
        base's.
        """
        return None

    def gate_exempt(self, hint: Optional[str]) -> bool:
        """Whether ``hint`` settles compressibility (no estimator run)."""
        return False


class NativePolicy(CompressionPolicy):
    """No compression, ever — the paper's Native baseline."""

    name = "Native"

    def select_codec(
        self, calculated_iops: float, hint: Optional[str] = None
    ) -> Optional[str]:
        return None


class FixedPolicy(CompressionPolicy):
    """Always compress with one codec — the paper's Lzf/Gzip/Bzip2 baselines."""

    def __init__(self, codec_name: str, label: Optional[str] = None) -> None:
        if not codec_name:
            raise ValueError("codec_name must be non-empty")
        self.codec_name = codec_name
        self.name = label if label is not None else codec_name.capitalize()

    def select_codec(
        self, calculated_iops: float, hint: Optional[str] = None
    ) -> Optional[str]:
        return self.codec_name


class ElasticPolicy(CompressionPolicy):
    """EDC's intensity-banded selection (Fig 6's feedback target)."""

    name = "EDC"

    def __init__(
        self,
        bands: Sequence[IntensityBand] = DEFAULT_BANDS,
        gate: bool = True,
    ) -> None:
        if not bands:
            raise ValueError("at least one band required")
        ordered = list(bands)
        uppers = [b.upper_iops for b in ordered]
        if any(uppers[i] >= uppers[i + 1] for i in range(len(uppers) - 1)):
            raise ValueError("band upper bounds must be strictly increasing")
        if uppers[-1] != float("inf"):
            raise ValueError("last band must cover all intensities (inf bound)")
        self.bands: Tuple[IntensityBand, ...] = tuple(ordered)
        self._gate = gate
        #: per-band selection counts, parallel to ``bands``
        self.band_counts = [0] * len(self.bands)
        #: ``select``: ``(band_index, calculated_iops)`` on every
        #: selection — band *transitions* (Fig 6's feedback loop
        #: switching rungs) are derived from it
        self.events = Emitter("policy")

    @property
    def uses_gate(self) -> bool:
        return self._gate

    @property
    def ladder(self) -> "ElasticPolicy":
        # A property, not ``self.ladder = self``: the self-reference
        # would make every policy a reference cycle.
        return self

    def select_codec(
        self, calculated_iops: float, hint: Optional[str] = None
    ) -> Optional[str]:
        if calculated_iops < 0:
            raise ValueError(f"negative intensity: {calculated_iops!r}")
        for i, band in enumerate(self.bands):
            if calculated_iops < band.upper_iops:
                self.band_counts[i] += 1
                if self.events.subs:
                    self.events.emit("select", i, calculated_iops)
                return band.codec
        raise AssertionError("unreachable: last band is unbounded")

    def band_index(self, calculated_iops: float) -> int:
        """Band :meth:`select_codec` would choose at this intensity.

        Pure query: no counters move and no ``select`` event fires, so
        the time-series sampler can read the active band every tick
        without polluting the selection statistics.
        """
        if calculated_iops < 0:
            raise ValueError(f"negative intensity: {calculated_iops!r}")
        for i, band in enumerate(self.bands):
            if calculated_iops < band.upper_iops:
                return i
        raise AssertionError("unreachable: last band is unbounded")

    def band_shares(self) -> list[float]:
        """Fraction of selections that landed in each band."""
        total = sum(self.band_counts)
        if total == 0:
            return [0.0] * len(self.bands)
        return [c / total for c in self.band_counts]

    def band_labels(self) -> list[str]:
        """Human-readable IOPS interval label per band, parallel to
        ``bands`` — ``[0,250)``, ``[250,3000)``, ``>=3000`` for the
        default ladder.  Used by the decision-audit regret tables."""
        labels = []
        lo = 0.0
        for band in self.bands:
            if band.upper_iops == float("inf"):
                labels.append(f">={lo:g}")
            else:
                labels.append(f"[{lo:g},{band.upper_iops:g})")
            lo = band.upper_iops
        return labels
