"""Scheme construction for the paper's comparison (Table I roster).

The five schemes of the evaluation:

=========  =========================================================
Native     no compression (the raw device)
Lzf        always-on LZF — "the latest flash-based storage products
           with always-on inline compression" (LZ*-style)
Gzip       always-on DEFLATE
Bzip2      always-on bzip2
EDC        the elastic scheme: intensity-banded codec selection,
           compressibility gate, sequentiality detection
=========  =========================================================

Fixed schemes compress each request as it arrives (no merging, no
gate), mirroring products that run one algorithm unconditionally; all
schemes share the same device model, content and traces.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.compression.costmodel import CodecCostModel
from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.policy import (
    CompressionPolicy,
    ElasticPolicy,
    FixedPolicy,
    IntensityBand,
    NativePolicy,
)
from repro.flash.ssd import StorageBackend
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator

__all__ = ["SCHEMES", "build_policy", "build_device", "scheme_config"]

SCHEMES = ("Native", "Lzf", "Gzip", "Bzip2", "EDC")


def build_policy(
    scheme: str,
    bands: Optional[Sequence[IntensityBand]] = None,
) -> CompressionPolicy:
    """The compression policy implementing one named scheme."""
    if scheme == "Native":
        return NativePolicy()
    if scheme == "Lzf":
        return FixedPolicy("lzf")
    if scheme == "Gzip":
        return FixedPolicy("gzip")
    if scheme == "Bzip2":
        return FixedPolicy("bzip2")
    if scheme == "EDC":
        return ElasticPolicy() if bands is None else ElasticPolicy(bands)
    raise ValueError(f"unknown scheme {scheme!r}; known: {SCHEMES}")


def scheme_config(scheme: str, base: Optional[EDCConfig] = None) -> EDCConfig:
    """Per-scheme device configuration.

    Only EDC runs the Sequentiality Detector and the compressibility
    gate; the fixed schemes model always-on per-request compression.
    """
    cfg = base if base is not None else EDCConfig()
    is_edc = scheme == "EDC"
    return dataclasses.replace(
        cfg,
        sd_enabled=cfg.sd_enabled and is_edc,
        compressibility_gate=cfg.compressibility_gate and is_edc,
    )


def build_device(
    sim: Simulator,
    scheme: str,
    backend: StorageBackend,
    content: ContentStore,
    config: Optional[EDCConfig] = None,
    bands: Optional[Sequence[IntensityBand]] = None,
    cost_model: Optional[CodecCostModel] = None,
    recovery=None,
) -> EDCBlockDevice:
    """A ready-to-replay device running ``scheme`` over ``backend``.

    ``recovery`` optionally attaches a
    :class:`~repro.recovery.DurableMetadataManager` that journals and
    checkpoints the mapping metadata in-band (crash consistency).
    Observers (telemetry, decision audit, device health) are not
    construction parameters: they ``bind_device`` the result.
    """
    policy = build_policy(scheme, bands)
    cfg = scheme_config(scheme, config)
    return EDCBlockDevice(
        sim, backend, policy, content, cfg, cost_model=cost_model,
        recovery=recovery,
    )
