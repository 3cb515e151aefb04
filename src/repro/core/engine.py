"""The Compression & Decompression Engine (paper Fig 4, Fig 6).

Given a write unit (one block or a merged run), the engine:

1. applies the **compressibility gate** — sampled estimation on the
   actual bytes; non-compressible data is written through raw (§III-D);
2. compresses with the policy-selected codec (real compression on real
   bytes, memoised through the :class:`~repro.sdgen.generator.ContentStore`);
3. applies the **75 % rule** — if the compressed form exceeds 75 % of
   the original, the block is "considered to be non-compressible and
   kept in its uncompressed form" (§III-C);
4. prices the CPU work with the calibrated
   :class:`~repro.compression.costmodel.CodecCostModel`.

The outcome is a :class:`WritePlan` that the device turns into CPU and
device queue jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.compression.codec import CodecRegistry, default_registry
from repro.compression.costmodel import CodecCostModel
from repro.compression.estimator import SAMPLE_FRACTION, SampledEstimator
from repro.sdgen.generator import ContentStore

__all__ = ["CompressionEngine", "WritePlan"]


@dataclass(frozen=True)
class WritePlan:
    """How one write unit will be stored.

    ``tag`` / ``codec_name`` describe the *stored* form; a write that was
    gated or failed the 75 % rule has tag 0 even though a codec was
    considered.
    """

    codec_name: str
    tag: int
    original_size: int
    payload_size: int
    cpu_time: float
    #: portion of ``cpu_time`` spent on the sampled compressibility
    #: estimation (telemetry attributes it to the ``estimate`` layer)
    estimate_time: float = 0.0
    #: write-through because the estimator judged the data incompressible
    gated: bool = False
    #: stored raw because compressed size exceeded the 75 % threshold
    failed_75pct: bool = False
    #: no codec was even considered (policy said raw)
    policy_raw: bool = False

    @property
    def is_compressed(self) -> bool:
        return self.tag != 0


class CompressionEngine:
    """Stateless-per-write compression planning with memoised results."""

    def __init__(
        self,
        content: ContentStore,
        registry: Optional[CodecRegistry] = None,
        cost_model: Optional[CodecCostModel] = None,
        estimator: Optional[SampledEstimator] = None,
        incompressible_fraction: float = 0.75,
        keep_payloads: bool = False,
    ) -> None:
        if not 0 < incompressible_fraction <= 1:
            raise ValueError(
                f"incompressible_fraction must be in (0,1]: {incompressible_fraction!r}"
            )
        self.content = content
        self.registry = registry if registry is not None else default_registry()
        self.cost_model = cost_model if cost_model is not None else CodecCostModel()
        self.estimator = estimator if estimator is not None else SampledEstimator()
        self.incompressible_fraction = incompressible_fraction
        self.keep_payloads = keep_payloads
        self._gate_cache: Dict[Tuple[int, ...], bool] = {}
        #: original size -> the (immutable, shared) policy-raw plan
        self._raw_plans: Dict[int, WritePlan] = {}

    # ------------------------------------------------------------------
    #: Throughput of the cheap heuristic passes (entropy, core-set) —
    #: single memory-bandwidth-bound scans.
    _HEURISTIC_MB_S = 2000.0
    #: Fraction of blocks that fall through to the sampled compression
    #: (the heuristics short-circuit the clear-cut cases).
    _SAMPLED_SHARE = 0.3

    def _estimation_time(self, original_size: int) -> float:
        """CPU seconds charged for the sampled compressibility check.

        Harnik-style estimation is two cheap scans plus, for the
        inconclusive minority, a fast-DEFLATE pass over a small sample;
        the charge here is the expected cost per block.
        """
        scan = original_size / (self._HEURISTIC_MB_S * 1024 * 1024)
        sampled = int(original_size * SAMPLE_FRACTION)
        fallthrough = self._SAMPLED_SHARE * self.cost_model.compress_time(
            "zlib-1", sampled
        )
        return 2e-6 + scan + fallthrough

    def _gate_allows(self, run_ids: Tuple[int, ...]) -> bool:
        """True when the estimator considers the run's data compressible."""
        cached = self._gate_cache.get(run_ids)
        if cached is None:
            cached = self.estimator.is_compressible(self.content.data_for_run(run_ids))
            self._gate_cache[run_ids] = cached
        return cached

    # ------------------------------------------------------------------
    def plan_write(
        self,
        run_ids: Tuple[int, ...],
        codec_name: Optional[str],
        gate: bool,
    ) -> WritePlan:
        """Decide the stored form of a run of content blocks.

        Parameters
        ----------
        run_ids:
            Content-pool ids of the blocks in the unit (length = span).
        codec_name:
            Policy-selected codec, or ``None`` for "do not compress".
        gate:
            Whether the compressibility write-through gate applies.
        """
        original = len(run_ids) * self.content.block_size
        if codec_name is None:
            plan = self._raw_plans.get(original)
            if plan is None:
                plan = self._raw_plans[original] = WritePlan(
                    codec_name="none",
                    tag=0,
                    original_size=original,
                    payload_size=original,
                    cpu_time=0.0,
                    policy_raw=True,
                )
            return plan
        cpu = 0.0
        estimate = 0.0
        if gate:
            estimate = self._estimation_time(original)
            cpu += estimate
            if not self._gate_allows(run_ids):
                return WritePlan(
                    codec_name="none",
                    tag=0,
                    original_size=original,
                    payload_size=original,
                    cpu_time=cpu,
                    estimate_time=estimate,
                    gated=True,
                )
        codec = self.registry.get(codec_name)
        payload = self.content.compressed_size(
            run_ids, codec, keep_payload=self.keep_payloads
        )
        cpu += self.cost_model.compress_time(codec_name, original)
        if payload > original * self.incompressible_fraction:
            # 75 % rule: not worth storing compressed.
            return WritePlan(
                codec_name="none",
                tag=0,
                original_size=original,
                payload_size=original,
                cpu_time=cpu,
                estimate_time=estimate,
                failed_75pct=True,
            )
        return WritePlan(
            codec_name=codec_name,
            tag=codec.tag,
            original_size=original,
            payload_size=payload,
            cpu_time=cpu,
            estimate_time=estimate,
        )

    # ------------------------------------------------------------------
    def decompress_time(self, codec_name: str, original_size: int) -> float:
        """CPU seconds to decompress a stored unit back to ``original_size``."""
        if codec_name == "none":
            return 0.0
        return self.cost_model.decompress_time(codec_name, original_size)
