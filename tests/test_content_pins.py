"""Generated content pools, pinned.

Every simulated result is a function of the bytes a ``ContentStore``
hands to the codecs, so the pools the gated and exhibit paths build are
pinned here: a sha256 over the blocks and, separately, over their chunk
kinds, each item length-prefixed, read through the public accessors.

- ``ENTERPRISE_MIX`` x 4096 B x 512 blocks at content seed 5 (the
  ``ReplayConfig`` / ``ClusterReplayConfig`` default) and 42 (the
  host-time benchmark's default);
- Fig 2's two corpora, ``build_corpus(mix, n_chunks=96,
  chunk_size=65536)`` at its default seed 7: the pool behind each, and
  the chunk list it returns;
- the one-class mix the unit tests use, 8 blocks at seed 1.

The digests were computed before pools were shared between stores.
Never edit them to make a change pass: a mismatch means the content
changed, and with it every simulated result.
"""

import hashlib

import pytest

from repro.sdgen.datasets import ENTERPRISE_MIX, FIREFOX_MIX, LINUX_SOURCE_MIX, build_corpus
from repro.sdgen.generator import ContentMix, ContentStore

TEXT_MIX = ContentMix("m", {"text": 1.0})

# name -> (mix, block_size, pool_blocks, seed)
POOLS = {
    "enterprise-5": (ENTERPRISE_MIX, 4096, 512, 5),
    "enterprise-42": (ENTERPRISE_MIX, 4096, 512, 42),
    "fig2-linux-source": (LINUX_SOURCE_MIX, 65536, 96, 7),
    "fig2-firefox": (FIREFOX_MIX, 65536, 96, 7),
    "text-8": (TEXT_MIX, 4096, 8, 1),
}

# name -> (sha256 of the blocks, sha256 of the kinds)
POOL_PINS = {
    "enterprise-5": (
        "5ef213a86fe2e967c6d8b30ab189d313ffadf22daef7228726439d53b78c035e",
        "d1cd81464e1d7d069838d35802e6665eabe74f647265648678016921eee03193",
    ),
    "enterprise-42": (
        "e2034b322d5177dc51ac3632bca5d7e6117d03f99e3ff56fb09876210e0b0234",
        "081bd1b20febd7c726142d5e52507f1c1c0227cc0b103c8c28f46cd4459979dc",
    ),
    "fig2-linux-source": (
        "623814cae4edace801ac1d0b5c8bf81d7c14d5da8ffb78907a0dd8bcd0e3a850",
        "dbf8bb9f8808df4e4dcaf5a20dc413d5f1b56859c02ca6ff437ffa827b3906ad",
    ),
    "fig2-firefox": (
        "a633ffe92338fc468523f4525dd68e195f720d6daa4a622bad4405479471cd82",
        "dcb2a734103482eb5cdf983216f7a615c33734930921ee4c46164f4e0d8b59a7",
    ),
    "text-8": (
        "710331503c056ec0fcf9e3413d04b84b6f4da9b49ffb74f59b861c192b0240ae",
        "d99d65b977cbdbc1b06e09999a50e7d8fd973b53a2af00ec03dbaef611b17493",
    ),
}

# Fig 2's chunk lists, as build_corpus returns them.
CORPUS_PINS = {
    "linux-source": "54e9ee79dc24c840059182ca7be08d9f7a2eeffa356f18b218bc6ea65c5f139a",
    "firefox": "d4da3a9469c8984faa0bb807b8ba1dbe1c2ee6de873516b8575ea3e9eae2998c",
}


def digest(items):
    h = hashlib.sha256()
    for item in items:
        data = item.encode() if isinstance(item, str) else item
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(POOLS))
def test_pool_is_pinned(name):
    mix, block_size, pool_blocks, seed = POOLS[name]
    store = ContentStore(mix, block_size=block_size, pool_blocks=pool_blocks, seed=seed)
    ids = range(pool_blocks)
    blocks = digest(store.data_for_run((i,)) for i in ids)
    kinds = digest(store.kind_of_id(i) for i in ids)
    assert (blocks, kinds) == POOL_PINS[name]


@pytest.mark.parametrize("mix", [LINUX_SOURCE_MIX, FIREFOX_MIX], ids=lambda m: m.name)
def test_fig2_corpus_is_pinned(mix):
    assert digest(build_corpus(mix, n_chunks=96, chunk_size=65536)) == CORPUS_PINS[mix.name]


def test_every_pool_is_pinned():
    assert set(POOL_PINS) == set(POOLS)
