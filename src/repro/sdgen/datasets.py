"""Canned content mixes calibrated to the paper's corpora.

The paper's Fig 2 measures codec efficiency on two datasets: the Linux
kernel source tree (highly compressible text/code) and the Mozilla
Firefox distribution (a mix of executables, resources and compressed
archives).  The mixes below are calibrated so zlib-6 achieves roughly
the ratios reported for those corpora (~4x for Linux source, ~2x for
Firefox), with Firefox carrying a substantial incompressible fraction.

A third mix, ``ENTERPRISE_MIX``, models the primary-storage block
population from the dedup/compression study the paper cites (El-Shimi
et al., USENIX ATC'12): ~31 % of chunks do not compress at all and the
savings concentrate in a compressible subset.
"""

from __future__ import annotations

from typing import Dict

from repro.sdgen.generator import ContentMix, ContentStore

__all__ = [
    "LINUX_SOURCE_MIX",
    "FIREFOX_MIX",
    "ENTERPRISE_MIX",
    "DATASETS",
    "build_corpus",
]

LINUX_SOURCE_MIX = ContentMix(
    "linux-source",
    {
        "code": 0.70,
        "text": 0.20,
        "binary-record": 0.05,
        "zero": 0.03,
        "compressed": 0.02,
    },
)

FIREFOX_MIX = ContentMix(
    "firefox",
    {
        "code": 0.15,
        "text": 0.15,
        "binary-record": 0.25,
        "zero": 0.05,
        "compressed": 0.25,
        "random": 0.15,
    },
)

ENTERPRISE_MIX = ContentMix(
    "enterprise",
    {
        "text": 0.30,
        "code": 0.08,
        "binary-record": 0.28,
        "zero": 0.05,
        "compressed": 0.17,
        "random": 0.12,
    },
)

DATASETS: Dict[str, ContentMix] = {
    m.name: m for m in (LINUX_SOURCE_MIX, FIREFOX_MIX, ENTERPRISE_MIX)
}


def build_corpus(
    mix: ContentMix,
    n_chunks: int = 256,
    chunk_size: int = 4096,
    seed: int = 7,
) -> list[bytes]:
    """``n_chunks`` blocks of a mix (for codec studies, Fig 2).

    Chunk ``i`` is ``block_for(i * chunk_size)`` of an ``n_chunks``-block
    pool, drawn through the LBA hash, so chunks repeat: Fig 2's 96 x
    64 KB corpora at seed 7 hold 59 distinct pool blocks (37 repeats).
    """
    store = ContentStore(mix, block_size=chunk_size, pool_blocks=n_chunks, seed=seed)
    return [store.block_for(i * chunk_size) for i in range(n_chunks)]
