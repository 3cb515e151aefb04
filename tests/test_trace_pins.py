"""Generated traces, pinned.

Every replay, exhibit and benchmark run starts from a trace that
``SyntheticTraceGenerator`` generates, so the traces the gated paths
replay are pinned here: a sha256 over every request's
``(time.hex(), op, lba, nbytes)``, in order.

- the four canonical workloads at seeds 10 (the host-time benchmark's
  canonical trace seed) and 42 (``make_workload``'s default), each
  count-bounded and duration-bounded;
- the ``native-gc`` benchmark input: Prxy_0 over a 64 MB address space,
  26,000 requests at seed 42;
- the ``fleet-rf2`` benchmark input: ``make_tenant_streams`` for
  ``tenant_roster(8)`` at 1,900 requests per tenant, seed 42.

The digests were computed with the generator that drew every
categorical through ``Generator.choice``.  Never edit them to make a
change pass: a mismatch means the traces changed, and with them every
simulated result.
"""

import dataclasses
import hashlib

import pytest

from repro.bench.cluster import tenant_roster
from repro.traces.multitenant import make_tenant_streams
from repro.traces.synthetic import SyntheticTraceGenerator
from repro.traces.workloads import WORKLOADS, make_workload

COUNT = 3_000
DURATION = 60.0


def digest(trace) -> str:
    h = hashlib.sha256()
    for r in trace:
        h.update(f"{r.time.hex()},{r.op},{r.lba},{r.nbytes}\n".encode())
    return h.hexdigest()


# (workload, seed, bound) -> sha256
WORKLOAD_PINS = {
    ("Fin1", 10, "count"): "6371df86095ca9197db81823c742c4a33a3fbee6a7d0906ad05438ebbdb4ae9e",
    ("Fin1", 10, "duration"): "84fb66fa9d17cb938ae6a71b83662f0f299e6a6290789a9d49f68496c0dcf432",
    ("Fin1", 42, "count"): "d3b3449bb496feaaa55df36b553d0debbc853d9979f52ae0ca1751866c7789bb",
    ("Fin1", 42, "duration"): "a7bafb5f8d0acf270276c0e60e05181ebecf15d0a6c77ba3f2edef2482b5ec93",
    ("Fin2", 10, "count"): "8dbd54c678fed048adee4546447a917305776a1af437be0dad21a78367596d07",
    ("Fin2", 10, "duration"): "aa664ad6633a2624ae4edd4dbfd816c17e9abe02d16cd1aa47d3f723402898d9",
    ("Fin2", 42, "count"): "71fb083d2b62f1e67af64a0297dbf82e4230401194816f4cd79f8c45020ff807",
    ("Fin2", 42, "duration"): "92f8b339d888d3955b6ee2766e4f099fa9ad9ebea58c4c0548e6ed2f636bb8bd",
    ("Prxy_0", 10, "count"): "e6b24963206e5be654dba5d6c1854438f75952108123fd2516712c74121c38ce",
    ("Prxy_0", 10, "duration"): "77d9d1d647668cede7b34e9c444f87d2e212909c117b3e8b3c2541c95e9698ea",
    ("Prxy_0", 42, "count"): "43768f3278c6f48c65271b277a2045b944b240f34c95690686cab93355228322",
    ("Prxy_0", 42, "duration"): "ee19763596779a5fae22e6e5981dc9575a4d66aa2d1708e84354f476123384f0",
    ("Usr_0", 10, "count"): "4679db319c68a838db6c866d1fba41ff7254acb5064f63a1d5938b1657848e67",
    ("Usr_0", 10, "duration"): "ab42e7cdb107748c77c1b42a4fb2d739c439f8cb6ec7fe798057de571d42b489",
    ("Usr_0", 42, "count"): "d17eb9245d53cbe0b9d57b49e5ecd02003963dccc4be4a702a02a7d5b278622f",
    ("Usr_0", 42, "duration"): "aaafdeccd8ac017f6a3d7c8475a511403812586e4f2fb53dedc4fdaa78220979",
}


@pytest.mark.parametrize("key", sorted(WORKLOAD_PINS), ids=lambda k: "-".join(map(str, k)))
def test_canonical_workload(key):
    name, seed, bound = key
    if bound == "count":
        trace = make_workload(name, max_requests=COUNT, seed=seed)
        assert len(trace) == COUNT
    else:
        trace = make_workload(name, duration=DURATION, max_requests=None, seed=seed)
        assert trace.duration <= DURATION
    assert digest(trace) == WORKLOAD_PINS[key]


def test_native_gc_input():
    params = dataclasses.replace(WORKLOADS["Prxy_0"], address_space=64 << 20)
    trace = SyntheticTraceGenerator(params, seed=42).generate(max_requests=26_000)
    assert len(trace) == 26_000
    assert digest(trace) == (
        "4d109ac0ea953e5625ff5ad48ef8b263a3a9fa1f60ed4cf655372070705a888f")


def test_fleet_tenant_streams():
    streams = make_tenant_streams(
        [t.name for t in tenant_roster(8)], max_requests=1_900, seed=42)
    assert [len(s.trace) for s in streams] == [1_900] * 8
    assert [digest(s.trace) for s in streams] == [
        "d520ae916961c47c8dff7ac4ea704d631fe819cd068394b8a361f0a92f2b852f",
        "72407d459e8585a9eb6b06bad4e0d55b80828639592c75b824c101ecd1bd2fec",
        "1fd0a1800610aadf9eaa81aba9dffa86a28fbca5a4744e7a0531f75d1b1a215e",
        "0fdb2e362dbc32ed06fa119e71c580963f2b0111aa27bef82385ab7987c6185c",
        "fa5962b54d4ba29df849623db110516ea1d7df720b63339d1cb5ef29aa0b6090",
        "ad58e50caa7930a30c13806fb141862ecee7be426869260343fd81d59e1b38c4",
        "b3af17aa4213fe71e5dbd08335a75a992e827e24c2c0a41ae368a432a2877f1f",
        "d5831078e49c7bbcdaf7853a20b5c121f2f0a4fef99e0ec288d174faf79c0bef",
    ]
