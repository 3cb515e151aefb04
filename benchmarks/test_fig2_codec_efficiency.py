"""Fig 2 — codec compression ratio and speed on two corpora.

Paper: Linux-source and Firefox datasets measured under Lzf, Lz4, Gzip
and Bzip2; bzip2/gzip win on ratio, lzf/lz4 win on speed, and
decompression is faster than compression for every codec.
"""


def test_fig2_codec_efficiency(exhibit):
    by = {(r.dataset, r.codec): r for r in exhibit("fig2")}
    for dataset in ("linux-source", "firefox"):
        gzip = by[(dataset, "gzip")]
        bzip2 = by[(dataset, "bzip2")]
        lzf = by[(dataset, "lzf")]
        lz4 = by[(dataset, "lz4")]
        # Ratio hierarchy: strong codecs beat fast codecs.
        assert gzip.ratio > lzf.ratio
        assert gzip.ratio > lz4.ratio
        assert bzip2.ratio > lzf.ratio
        # Speed hierarchy: fast codecs far faster than strong ones.
        assert lzf.compress_mb_s > 3 * gzip.compress_mb_s
        assert lz4.compress_mb_s > lzf.compress_mb_s
        assert gzip.compress_mb_s > bzip2.compress_mb_s
        # Decompression faster than compression, for every codec.
        for r in (gzip, bzip2, lzf, lz4):
            assert r.decompress_mb_s > r.compress_mb_s

    # Dataset effect: Linux source compresses better than Firefox.
    assert by[("linux-source", "gzip")].ratio > by[("firefox", "gzip")].ratio
