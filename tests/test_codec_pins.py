"""Compressed bytes of the LZ encoders, pinned.

Every other codec test checks round-trips and sizes; this one checks the
bytes.  Each digest is a sha256 over the length-prefixed outputs of one
encoder on one ``sdgen.datasets`` pool (``build_corpus(mix, 256, 4096,
seed=7)``), block by block and in runs of 2, 3 and 16 consecutive
blocks: a 64 KB run crosses LZF's 8 KB window eight times and is what
EDC's merged writes actually feed the codec.

The digests were computed with the per-byte ``dict`` encoders (now
``tests/reference_codecs.py``) before the candidate table replaced
them.  Never edit them to make a change pass: a mismatch means the
encoder's output changed, and with it every simulated result.
"""

import hashlib

import pytest

from repro.compression.lz4 import lz4_compress
from repro.compression.lzf import lzf_compress
from repro.sdgen.datasets import DATASETS, build_corpus

ENCODERS = {"lzf": lzf_compress, "lz4": lz4_compress}
RUN_LENGTHS = (1, 2, 3, 16)

PINS = {
    ("lz4", "enterprise", 1): "a2e4f7ef58f43eaa67594005660bead095936f731f0552b351b716434bf4a8e9",
    ("lz4", "enterprise", 2): "b3d906c4e1648d4788080e6dd424954d297003f5c91f289381f76b587c4234f3",
    ("lz4", "enterprise", 3): "59041defb9c372d9b8b858fba01f6c436957990a5d4b5dd0b26e1a8c89d466fb",
    ("lz4", "enterprise", 16): "02ec704f9922b7321ff31f544e1011c32ffce5899a6b3f765f45de57cdb4cf47",
    ("lzf", "enterprise", 1): "dd2037edf3d30169406d14db0994b71f6138c26f83e4d99d9da3e93dab3b5620",
    ("lzf", "enterprise", 2): "c075b6e56d0234a57ca10a9948d746e142408bc2ec5c4013696ed58a53af52ad",
    ("lzf", "enterprise", 3): "16aa30ecdb067bf5193fc6d049f32736409b642bd4129fee1cb120e16ea834ce",
    ("lzf", "enterprise", 16): "f24541afa9555996dd91ef6667f4c3c5a301ae2009c8e4b836920320e96e1e95",
    ("lz4", "firefox", 1): "329d125997589ea4ae5d39bc1806ea1dcad6d47f83ea3ee676cbcc222e01f562",
    ("lz4", "firefox", 2): "ad692d257274e80c89450b2fd218cb3532177db78f7d9397d2291de05a0da361",
    ("lz4", "firefox", 3): "6bbec53947fe2f747ebbfde203c4d573fac374b10ed2112451fce59c7a90699b",
    ("lz4", "firefox", 16): "237f3dfbc42252e4c32ac4c9d4389bbb25c758b83ca8d2c6521d4abd01f70e62",
    ("lzf", "firefox", 1): "d7f245c4ec1b955701227a2be77f8cd451f73b998e764efc19619e7a0622261a",
    ("lzf", "firefox", 2): "ecab7c07696610c7a344900091a5aafd53061641a630ab21a159317b88a44b4d",
    ("lzf", "firefox", 3): "96622bea7f0a9c5a6b0b2e42ed2c0257b013e0b1c222430de96d398ec1fcb03e",
    ("lzf", "firefox", 16): "c6cc444f5bef617f08249c821915380f5a10cca34ccbd36e531159ef18b79b0f",
    ("lz4", "linux-source", 1): "818c474387de31f6f00d6960a45c57337872a35b4f1466de3b705fe7dbd703d0",
    ("lz4", "linux-source", 2): "28e85c0a334785031407d68422d97ec04b2bfdb3f0587a401f551dcd6f2dfc49",
    ("lz4", "linux-source", 3): "e40cd93cfa10c6602e2b1844dc8fdb5640e240edaa2fb0c5b5a08162690c1c78",
    ("lz4", "linux-source", 16): "aeefefcbab5ed2b4333677ba64a2cf1552c8810f0ccab4e5dfca7916e11da125",
    ("lzf", "linux-source", 1): "03fc335f238ea127dc479e77eaa345d9a58efe524ca405ae8fc01d41ac1f08bd",
    ("lzf", "linux-source", 2): "fe3b6f46e921c111191319f7ea0507ec29bfdda19daac6b679a59059b8e20867",
    ("lzf", "linux-source", 3): "baa76ac2e7244b5c41668e897886abae252b8d5399b18e1d0aa5329c13dd1c91",
    ("lzf", "linux-source", 16): "37569863aa6a2a8ec9ffe0f4751959c6423b3cc33e05dc1de6834f99cce272bf",
}


def digest(encode, blocks, run):
    h = hashlib.sha256()
    for k in range(0, len(blocks) - run + 1, run):
        out = encode(b"".join(blocks[k : k + run]))
        h.update(len(out).to_bytes(4, "little"))
        h.update(out)
    return h.hexdigest()


@pytest.fixture(scope="module", params=sorted(DATASETS))
def corpus(request):
    return request.param, build_corpus(DATASETS[request.param])


@pytest.mark.parametrize("run", RUN_LENGTHS)
@pytest.mark.parametrize("codec", sorted(ENCODERS))
def test_compressed_bytes_are_pinned(corpus, codec, run):
    name, blocks = corpus
    assert digest(ENCODERS[codec], blocks, run) == PINS[codec, name, run]


def test_every_combination_is_pinned():
    assert set(PINS) == {
        (c, d, r) for c in ENCODERS for d in DATASETS for r in RUN_LENGTHS
    }
