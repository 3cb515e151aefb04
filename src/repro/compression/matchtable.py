"""Match candidates for the greedy LZ encoders, one table per buffer.

Both encoders index **every** position they pass, matched or not, so
the candidate at position ``i`` does not depend on the parse: it is the
most recent ``p < i`` whose ``key_len``-byte key equals the key at
``i``, provided ``i - p <= max_dist`` (an older ``p`` is further still,
so a too-distant most-recent occurrence means no candidate).  That is a
function of the input alone and is computed here for all positions at
once; the encoders then loop once per match instead of once per byte.
"""

from __future__ import annotations

import numpy as np

from repro.compression.codec import CodecError

__all__ = ["match_candidates"]


def match_candidates(
    data: bytes, key_len: int, n_keys: int, max_dist: int
) -> tuple[memoryview, memoryview]:
    """``(cand_of, next_match)`` over the keys at positions ``< n_keys``.

    ``next_match[i]`` is the first position ``>= i`` that has a
    candidate, or ``len(data)`` when none is left (defined for every
    ``i <= len(data)``); ``cand_of[j]`` is that candidate wherever
    ``next_match[j] == j``.  ``key_len`` is 3 or 4.
    """
    n = len(data)
    if n > np.iinfo(np.int32).max:
        raise CodecError(f"{n}-byte input: positions are 32-bit")
    n_keys = max(n_keys, 0)
    buf = np.frombuffer(data, dtype=np.uint8)
    keys = buf[:n_keys].astype(np.uint32)
    for k in range(1, key_len):
        keys = (keys << 8) | buf[k : k + n_keys]
    # Stable LSD radix sort, 16 bits a pass: NumPy's stable argsort is a
    # radix sort up to 16-bit keys and a much slower merge sort beyond.
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    order = order[np.argsort((keys >> 16).astype(np.uint16)[order], kind="stable")]
    # Equal keys are now adjacent, in position order.
    sorted_keys = keys[order]
    cur, prev = order[1:], order[:-1]
    same_key = sorted_keys[1:] == sorted_keys[:-1]
    hit = np.flatnonzero(same_key & (cur - prev <= max_dist))
    cur = cur[hit]
    # int32 arrays read through memoryviews: lists of int objects would
    # cost ~80 bytes a position on a 64 KB merged run.
    cand_of = np.zeros(n + 1, dtype=np.int32)
    cand_of[cur] = prev[hit]
    next_match = np.full(n + 1, n, dtype=np.int32)
    next_match[cur] = cur
    np.minimum.accumulate(next_match[::-1], out=next_match[::-1])
    return memoryview(cand_of), memoryview(next_match)
