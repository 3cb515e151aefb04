"""Tests for the ContentStore (deterministic content + memoised compression)."""

import pytest

from repro.compression.codec import default_registry
from repro.sdgen.datasets import DATASETS, ENTERPRISE_MIX, FIREFOX_MIX, LINUX_SOURCE_MIX, build_corpus
from repro.sdgen.generator import ContentMix, ContentStore, _build_pool


@pytest.fixture(scope="module")
def store():
    return ContentStore(ENTERPRISE_MIX, pool_blocks=64, seed=3)


class TestContentMix:
    def test_normalized(self):
        m = ContentMix("m", {"text": 3.0, "random": 1.0})
        n = m.normalized()
        assert n["text"] == pytest.approx(0.75)
        assert sum(n.values()) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentMix("m", {})
        with pytest.raises(ValueError):
            ContentMix("m", {"bogus-class": 1.0})
        with pytest.raises(ValueError):
            ContentMix("m", {"text": -1.0})
        with pytest.raises(ValueError):
            ContentMix("m", {"text": 0.0})


class TestDeterminism:
    def test_same_lba_same_content(self, store):
        assert store.block_for(12345 * 4096) == store.block_for(12345 * 4096)

    def test_same_seed_same_assignment(self):
        a = ContentStore(ENTERPRISE_MIX, pool_blocks=64, seed=3)
        b = ContentStore(ENTERPRISE_MIX, pool_blocks=64, seed=3)
        for lba in (0, 4096, 999 * 4096):
            assert a.block_for(lba) == b.block_for(lba)

    def test_different_seed_differs(self):
        a = ContentStore(ENTERPRISE_MIX, pool_blocks=64, seed=3)
        b = ContentStore(ENTERPRISE_MIX, pool_blocks=64, seed=4)
        assert any(
            a.block_for(i * 4096) != b.block_for(i * 4096) for i in range(20)
        )

    def test_version_changes_content(self, store):
        ids = {store.block_id(0, v) for v in range(20)}
        assert len(ids) > 1

    def test_sub_block_offsets_share_content(self, store):
        assert store.block_for(8192) == store.block_for(8192 + 1000)

    def test_negative_lba_rejected(self, store):
        with pytest.raises(ValueError):
            store.block_id(-1)


class TestPool:
    def test_block_sizes(self, store):
        assert all(len(store.block_for(i * 4096)) == 4096 for i in range(10))

    def test_pool_stats_cover_all_blocks(self, store):
        stats = store.pool_stats()
        assert sum(stats.values()) == store.pool_blocks

    def test_kind_for_matches_mix(self, store):
        kinds = {store.kind_for(i * 4096) for i in range(64)}
        assert kinds <= set(ENTERPRISE_MIX.weights)

    def test_run_ids_and_data(self, store):
        ids = store.run_ids(0, 3)
        assert len(ids) == 3
        data = store.data_for_run(ids)
        assert len(data) == 3 * 4096
        assert data[:4096] == store.block_for(0)

    def test_run_ids_with_versions(self, store):
        v0 = store.run_ids(0, 2, versions=[0, 0])
        v1 = store.run_ids(0, 2, versions=[1, 0])
        assert v0[1] == v1[1]

    @pytest.mark.parametrize("versions", [[0], [0, 0, 0]], ids=["short", "long"])
    def test_run_ids_rejects_versions_of_the_wrong_length(self, store, versions):
        with pytest.raises(ValueError, match="versions for a run of 2 blocks"):
            store.run_ids(0, 2, versions=versions)


def _key(mix, block_size=4096, pool_blocks=16, seed=1):
    return tuple(mix.weights.items()), block_size, pool_blocks, seed


class TestPoolSharing:
    """One immutable pool per key per process; memo and counters per store."""

    def test_equal_keys_share_one_pool(self):
        a = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
        b = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
        assert a._pool is b._pool
        assert a._pool_kind is b._pool_kind
        assert isinstance(a._pool, tuple) and isinstance(a._pool_kind, tuple)

    @pytest.mark.parametrize("key", [
        _key(ENTERPRISE_MIX, seed=2),
        _key(ENTERPRISE_MIX, pool_blocks=17),
        _key(ENTERPRISE_MIX, block_size=2048),
        _key(ContentMix("reordered", dict(reversed(ENTERPRISE_MIX.weights.items())))),
    ], ids=["seed", "pool_blocks", "block_size", "weight-order"])
    def test_each_key_equals_an_uncached_build(self, key):
        weights_items, block_size, pool_blocks, seed = key
        store = ContentStore(
            ContentMix("m", dict(weights_items)),
            block_size=block_size, pool_blocks=pool_blocks, seed=seed,
        )
        assert (store._pool, store._pool_kind) == _build_pool.__wrapped__(*key)

    def test_weight_order_is_part_of_the_key(self):
        # Normalising sums the weights in insertion order, so reordered
        # weights may round to different probabilities: never merge them.
        forward = ContentMix("f", {"text": 0.1, "code": 0.2, "random": 0.3})
        backward = ContentMix("b", {"random": 0.3, "code": 0.2, "text": 0.1})
        assert forward.normalized() != backward.normalized()
        a = ContentStore(forward, pool_blocks=4, seed=1)
        b = ContentStore(backward, pool_blocks=4, seed=1)
        assert a._pool is not b._pool

    def test_memo_and_counters_stay_per_store(self):
        lzf = default_registry().get("lzf")
        mix = ContentMix("m", {"text": 1.0})
        a = ContentStore(mix, pool_blocks=8, seed=1)
        b = ContentStore(mix, pool_blocks=8, seed=1)
        ids = a.run_ids(0, 2)
        a.compressed_payload(ids, lzf)
        # Corrupt a's payload memo in place, as the failure-injection
        # tests do to reach the device's verify-reads path.
        for key in list(a._payload_cache):
            blob = bytearray(a._payload_cache[key])
            blob[0] ^= 0x01
            a._payload_cache[key] = bytes(blob)
        assert (b.cache_hits, b.cache_misses, b.cache_entries) == (0, 0, 0)
        assert lzf.decompress(b.compressed_payload(ids, lzf), 8192) == b.data_for_run(ids)
        assert b.compressed_payload(ids, lzf) != a.compressed_payload(ids, lzf)
        assert (a.cache_hits, a.cache_misses) == (1, 1)
        assert (b.cache_hits, b.cache_misses) == (1, 1)

    def test_cache_is_bounded(self):
        maxsize = _build_pool.cache_info().maxsize
        for seed in range(maxsize + 3):
            ContentStore(ENTERPRISE_MIX, pool_blocks=2, seed=1000 + seed)
        assert _build_pool.cache_info().currsize <= maxsize


class TestCompressionMemoisation:
    def test_size_cache_hits(self):
        store = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
        gzip = default_registry().get("gzip")
        ids = store.run_ids(0, 1)
        s1 = store.compressed_size(ids, gzip)
        misses = store.cache_misses
        s2 = store.compressed_size(ids, gzip)
        assert s1 == s2
        assert store.cache_misses == misses
        assert store.cache_hits >= 1

    def test_sizes_are_real_compression(self):
        store = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
        gzip = default_registry().get("gzip")
        ids = store.run_ids(0, 1)
        assert store.compressed_size(ids, gzip) == len(
            gzip.compress(store.data_for_run(ids))
        )

    def test_payload_round_trip(self):
        store = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
        lzf = default_registry().get("lzf")
        ids = store.run_ids(4096, 2)
        payload = store.compressed_payload(ids, lzf)
        assert lzf.decompress(payload, 8192) == store.data_for_run(ids)

    def test_counters_account_for_every_lookup_and_codec_call(self):
        # Payload fetches (verify-reads, replica audits) are lookups too:
        # a miss there is a codec call and must be counted as one.
        class CountingCodec(type(default_registry().get("lzf"))):
            calls = 0

            def compress(self, data):
                self.calls += 1
                return super().compress(data)

        store = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
        codec = CountingCodec()
        a, b, c = (store.run_ids(k * 4096, 2) for k in range(3))
        store.compressed_payload(a, codec)  # miss: payload first
        store.compressed_size(a, codec)  # hit: the size came with it
        store.compressed_payload(a, codec)  # hit
        store.compressed_size(b, codec)  # miss: size only
        store.compressed_payload(b, codec)  # miss: payload was not kept
        store.compressed_size(b, codec, keep_payload=True)  # hit
        store.compressed_size(c, codec, keep_payload=True)  # miss
        store.compressed_payload(c, codec)  # hit
        assert (store.cache_hits, store.cache_misses) == (4, 4)
        assert codec.calls == store.cache_misses

    def test_distinct_codecs_cached_separately(self):
        store = ContentStore(ENTERPRISE_MIX, pool_blocks=16, seed=1)
        reg = default_registry()
        ids = store.run_ids(0, 1)
        store.compressed_size(ids, reg.get("gzip"))
        store.compressed_size(ids, reg.get("lzf"))
        assert store.cache_entries == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentStore(ENTERPRISE_MIX, block_size=0)
        with pytest.raises(ValueError):
            ContentStore(ENTERPRISE_MIX, pool_blocks=0)


class TestDatasets:
    def test_canned_mixes_registered(self):
        assert {"linux-source", "firefox", "enterprise"} <= set(DATASETS)

    def test_build_corpus_shapes(self):
        corpus = build_corpus(LINUX_SOURCE_MIX, n_chunks=8, chunk_size=2048)
        assert len(corpus) == 8
        assert all(len(c) == 2048 for c in corpus)

    def test_linux_more_compressible_than_firefox(self):
        """Fig 2: the Linux-source corpus compresses better than Firefox."""
        import zlib

        def ratio(mix):
            corpus = build_corpus(mix, n_chunks=48, chunk_size=4096)
            total = sum(len(c) for c in corpus)
            comp = sum(len(zlib.compress(c, 6)) for c in corpus)
            return total / comp

        assert ratio(LINUX_SOURCE_MIX) > ratio(FIREFOX_MIX)

    def test_enterprise_has_incompressible_fraction(self):
        """El-Shimi et al.: roughly a third of blocks do not compress."""
        store = ContentStore(ENTERPRISE_MIX, pool_blocks=256, seed=5)
        stats = store.pool_stats()
        incompressible = stats.get("random", 0) + stats.get("compressed", 0)
        assert 0.15 <= incompressible / 256 <= 0.45
