"""Deterministic content assignment and compression memoisation.

:class:`ContentStore` is the bridge between data-less block traces and
real compression: every (LBA, version) pair maps deterministically to a
block from a seeded content pool, so the same trace replayed under two
schemes sees byte-identical data.  A pool is a pure function of its mix,
block size, size and seed, so it is generated once per process per key
and shared, immutable, by every store built with that key.  It is built
on first read: the LBA-to-block assignment needs only a hash, and a
Native device, which never reads a content byte, never builds it (see
:class:`~repro.core.device.EDCBlockDevice`).  Because the
pool is finite, per-codec compression results can be memoised — a
full-trace replay compresses each distinct (content, codec) pair once,
which is what makes replays with the pure-Python LZF/LZ4 codecs
affordable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.compression.codec import Codec
from repro.sdgen.chunks import CHUNK_CLASSES, ChunkGenerator

__all__ = ["ContentMix", "ContentStore"]


@dataclass(frozen=True)
class ContentMix:
    """A weighted mixture of chunk classes.

    ``weights`` maps chunk-class kind (see
    :data:`~repro.sdgen.chunks.CHUNK_CLASSES`) to a relative weight.
    """

    name: str
    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("empty content mix")
        unknown = set(self.weights) - set(CHUNK_CLASSES)
        if unknown:
            raise ValueError(f"unknown chunk classes: {sorted(unknown)}")
        for kind, w in self.weights.items():
            if not 0 <= w < math.inf:
                raise ValueError(
                    f"weight of {kind!r} must be finite and non-negative: {w!r}"
                )
        if not 0 < sum(self.weights.values()) < math.inf:
            raise ValueError("weights must sum to a finite positive value")

    def normalized(self) -> Dict[str, float]:
        total = sum(self.weights.values())
        return {k: w / total for k, w in self.weights.items()}


@functools.lru_cache(maxsize=4)
def _build_pool(
    weights_items: Tuple[Tuple[str, float], ...],
    block_size: int,
    pool_blocks: int,
    seed: int,
) -> Tuple[Tuple[bytes, ...], Tuple[str, ...]]:
    """The content pool for one key: its blocks and their chunk kinds.

    The only place a pool is generated, reached only through this cache,
    so every :class:`ContentStore` with an equal key shares one result.
    ``weights_items`` keeps the mix's insertion order: normalising sums
    the weights in that order, so two orders of the same weights may
    round to different probabilities and hence different pools.
    """
    rng = np.random.default_rng(seed)
    weights = ContentMix("pool", dict(weights_items)).normalized()
    kinds = sorted(weights)
    probs = np.array([weights[k] for k in kinds])
    gens: Dict[str, ChunkGenerator] = {k: CHUNK_CLASSES[k]() for k in kinds}
    pool: list[bytes] = []
    pool_kind: list[str] = []
    assignments = rng.choice(len(kinds), size=pool_blocks, p=probs)
    for a in assignments:
        kind = kinds[int(a)]
        pool.append(gens[kind].generate(rng, block_size))
        pool_kind.append(kind)
    return tuple(pool), tuple(pool_kind)


class ContentStore:
    """Deterministic per-LBA content with memoised compression.

    Parameters
    ----------
    mix:
        Class mixture for the pool.
    block_size:
        Logical block size; pool blocks are this large.
    pool_blocks:
        Number of distinct content blocks.  Larger pools cost more
        generation (once per process) and compression; smaller pools
        raise the cache hit rate.  1024 blocks x 4 KB = 4 MB of distinct
        content.
    seed:
        Seeds both pool generation and the LBA->block assignment hash.

    Stores built with equal ``(mix weights in order, block_size,
    pool_blocks, seed)`` share one immutable pool (:func:`_build_pool`).
    The pool is resolved on the first read of a block or kind (or by
    :meth:`resolve`) and then held on the store, so a cache eviction
    never rebuilds it; :meth:`block_id` and :meth:`run_ids` need only
    the hash.
    The compression memo and its ``cache_hits`` / ``cache_misses``
    counters stay per store, for two reasons: sharing them buys little
    (across the four paper traces at seed 42, 490 distinct keys against
    551 per-store misses, 3.81 of 4.05 MB of LZF input), and a store's
    payload memo is what its device verifies reads against, so
    corrupting one store's payloads (as the failure-injection tests do)
    must not reach any other store.
    """

    def __init__(
        self,
        mix: ContentMix,
        block_size: int = 4096,
        pool_blocks: int = 1024,
        seed: int = 0,
    ) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive: {block_size!r}")
        if pool_blocks <= 0:
            raise ValueError(f"pool_blocks must be positive: {pool_blocks!r}")
        self.mix = mix
        self.block_size = block_size
        self.pool_blocks = pool_blocks
        self.seed = seed
        self._key = (tuple(mix.weights.items()), block_size, pool_blocks, seed)
        # (block ids tuple, codec name) -> (compressed size, payload or None)
        self._csize_cache: Dict[Tuple[Tuple[int, ...], str], int] = {}
        self._payload_cache: Dict[Tuple[Tuple[int, ...], str], bytes] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def resolve(self) -> None:
        """Build the pool (or take it from the cache) now, not at first read."""
        if "_pool" not in self.__dict__:
            self._pool, self._pool_kind = _build_pool(*self._key)

    def __getattr__(self, name: str):
        # Reached only while the pool is unresolved: once resolved, both
        # halves are plain attributes of the store.
        if name not in ("_pool", "_pool_kind"):
            raise AttributeError(name)
        self.resolve()
        return self.__dict__[name]

    # ------------------------------------------------------------------
    def block_id(self, lba: int, version: int = 0) -> int:
        """Deterministic pool index for a logical block address + version."""
        if lba < 0:
            raise ValueError(f"negative lba: {lba!r}")
        blk = lba // self.block_size
        # Cheap integer hash (splitmix64-style) for a stable assignment.
        x = (blk * 0x9E3779B97F4A7C15 + version * 0xBF58476D1CE4E5B9 + self.seed) % (
            1 << 64
        )
        x ^= x >> 31
        x = (x * 0x94D049BB133111EB) % (1 << 64)
        x ^= x >> 29
        return int(x % self.pool_blocks)

    def block_for(self, lba: int, version: int = 0) -> bytes:
        """Content of the block containing ``lba`` at write ``version``."""
        return self._pool[self.block_id(lba, version)]

    def kind_of_id(self, pool_id: int) -> str:
        """Chunk class of a pool block by id (for semantic hints)."""
        return self._pool_kind[pool_id]

    def run_ids(self, lba: int, nblocks: int, versions: Optional[list[int]] = None
                ) -> Tuple[int, ...]:
        """Pool ids for ``nblocks`` consecutive blocks starting at ``lba``.

        ``versions``, if given, holds one write version per block.
        """
        if versions is None:
            versions = [0] * nblocks
        elif len(versions) != nblocks:
            raise ValueError(
                f"{len(versions)} versions for a run of {nblocks} blocks"
            )
        return tuple(
            self.block_id(lba + i * self.block_size, versions[i])
            for i in range(nblocks)
        )

    def data_for_run(self, ids: Tuple[int, ...]) -> bytes:
        """Concatenated content of a run of pool block ids."""
        return b"".join(self._pool[i] for i in ids)

    # ------------------------------------------------------------------
    def compressed_size(
        self, ids: Tuple[int, ...], codec: Codec, keep_payload: bool = False
    ) -> int:
        """Compressed size of the run ``ids`` under ``codec``, memoised.

        With ``keep_payload`` the compressed bytes are retained for
        later retrieval via :meth:`compressed_payload` (integrity tests).
        """
        key = (ids, codec.name)
        cached = self._csize_cache.get(key)
        if cached is not None and (not keep_payload or key in self._payload_cache):
            self.cache_hits += 1
            return cached
        return len(self._fill(key, codec, keep_payload))

    def compressed_payload(self, ids: Tuple[int, ...], codec: Codec) -> bytes:
        """Compressed bytes for a run (compressing now if not cached)."""
        key = (ids, codec.name)
        payload = self._payload_cache.get(key)
        if payload is not None:
            self.cache_hits += 1
            return payload
        return self._fill(key, codec, keep_payload=True)

    def _fill(
        self, key: Tuple[Tuple[int, ...], str], codec: Codec, keep_payload: bool
    ) -> bytes:
        """A memo miss, and the only codec call: compress, fill the caches."""
        self.cache_misses += 1
        payload = codec.compress(self.data_for_run(key[0]))
        self._csize_cache[key] = len(payload)
        if keep_payload:
            self._payload_cache[key] = payload
        return payload
