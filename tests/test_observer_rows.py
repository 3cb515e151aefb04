"""Observers keep rows, not objects.

The span tracer keeps each finished span as one row of typed columns
and the decision auditor keeps each reservoir event as one tuple; both
hand out read-only sequences that build ``Span`` objects and event
dicts on read.  These tests pin the memory contract (no record object
outlives a replay), the view contract, and that what is read back is
what the parent commit's stores held.
"""

import dataclasses
import gc
import hashlib
import io
import json

import pytest

from repro.bench.experiments import ReplayConfig, replay
from repro.sim.engine import Simulator
from repro.telemetry import (
    DecisionAuditor,
    DeviceHealth,
    GcEpisode,
    Span,
    Telemetry,
    Tracer,
    dump_jsonl,
    parse_shadow_spec,
)
from repro.telemetry import spans as spans_module
from repro.traces.workloads import make_workload


def _is_event(x) -> bool:
    return type(x) is dict and x.get("kind") == "event"


def live_records():
    """``(Span objects, reservoir event dicts)`` alive now.

    An event dict holding only atomic values may be untracked by the
    collector, so referents of tracked containers are counted too.
    """
    gc.collect()
    found = {}
    for o in gc.get_objects():
        for x in (o, *gc.get_referents(o)):
            if type(x) is Span or _is_event(x):
                found[id(x)] = x
    spans = sum(type(x) is Span for x in found.values())
    return spans, len(found) - spans


class TestRetention:
    def test_an_observed_replay_keeps_no_record_objects(self):
        trace = make_workload("Fin2", max_requests=4000)
        telemetry = Telemetry(Simulator())
        auditor = DecisionAuditor()
        devices = []
        before = live_records()
        replay(
            trace, "Gzip", ReplayConfig(), telemetry=telemetry,
            auditor=auditor,
            on_built=lambda sim, device, backend, members: devices.append(device),
        )
        [device] = devices
        assert device.outstanding == 0
        assert len(telemetry.tracer) > 4000 and len(auditor.events) > 0
        spans, events = live_records()
        assert (spans - before[0], events - before[1]) == (0, 0)


def _recorded_tracer():
    """A tracer with nested, tagged and untagged spans in a known order."""
    clock = [0.0]
    tracer = Tracer(lambda: clock[0])
    root = tracer.start("write", lba=4096, nbytes=8192)
    queued = tracer.record("queue.cpu", "queue", 0.5, 1.0, parent=root)
    compress = tracer.record(
        "compress", "compress", 1.0, 1.75, parent=root, codec="lzf",
    )
    clock[0] = 2.0
    tracer.finish(root)
    other = tracer.record("read", "request", 2.5, 3.0)
    # (span_id, parent_id, name, layer, start, end, tags) in finish order
    want = [
        (queued.span_id, root.span_id, "queue.cpu", "queue", 0.5, 1.0, None),
        (compress.span_id, root.span_id, "compress", "compress", 1.0, 1.75,
         {"codec": "lzf"}),
        (root.span_id, None, "write", "request", 0.0, 2.0,
         {"lba": 4096, "nbytes": 8192}),
        (other.span_id, None, "read", "request", 2.5, 3.0, None),
    ]
    return tracer, want


def _fields(span: Span):
    return (span.span_id, span.parent_id, span.name, span.layer, span.start,
            span.end, span.tags)


class TestSpanView:
    def test_sequence_operations(self):
        tracer, want = _recorded_tracer()
        view = tracer.spans
        assert len(view) == len(tracer) == 4
        assert [_fields(s) for s in view] == want
        assert [_fields(s) for s in tracer] == want
        assert _fields(view[0]) == want[0]
        assert _fields(view[-1]) == want[-1]
        assert _fields(view[-4]) == want[0]
        assert [_fields(s) for s in view[1:3]] == want[1:3]
        assert [_fields(s) for s in view[::-2]] == want[::-2]
        for bad in (4, -5):
            with pytest.raises(IndexError):
                view[bad]

    def test_spans_read_back_as_recorded(self):
        tracer, want = _recorded_tracer()
        for span, fields in zip(tracer.spans, want):
            assert _fields(span) == fields
            assert span.duration == fields[5] - fields[4]
            assert span.to_dict().get("tags") == fields[6]
        # every read builds a fresh span: changing one changes no row
        tracer.spans[2].tags["lba"] = 0
        assert tracer.spans[2].tags == {"lba": 4096, "nbytes": 8192}

    def test_view_is_read_only(self):
        tracer, _ = _recorded_tracer()
        assert not hasattr(tracer.spans, "append")
        with pytest.raises(TypeError):
            tracer.spans[0] = Span(99, "x", "queue", 0.0)

    def test_cap_is_read_when_a_row_is_appended(self, monkeypatch):
        tracer = Tracer(lambda: 0.0)
        tracer.record("early", "queue", 0.0, 1.0)
        monkeypatch.setattr(spans_module, "MAX_SPANS", 5)
        for i in range(8):
            tracer.record(f"s{i}", "queue", 0.0, 1.0)
        root = tracer.start("late")
        tracer.finish(root, end=2.0)
        assert len(tracer) == len(tracer.spans) == 5
        assert tracer.dropped == 9 - 5 + 1
        assert tracer.open_spans == 0
        fp = io.StringIO()
        assert dump_jsonl(tracer, fp) == 5
        lines = [json.loads(line) for line in fp.getvalue().splitlines()]
        assert lines[0] == {"meta": "trace_header", "retained": 5,
                            "dropped": 5}
        assert lines[-1] == {"meta": "dropped_spans", "count": 5}
        assert [d["name"] for d in lines[1:-1]] == [
            "early", "s0", "s1", "s2", "s3",
        ]

    def test_rejected_span_leaves_no_row(self):
        tracer = Tracer(lambda: 5.0)
        with pytest.raises(ValueError):
            tracer.record("x", "queue", 2.0, 1.0)
        span = tracer.start("y", start=10.0)
        with pytest.raises(ValueError):
            tracer.finish(span)
        assert len(tracer) == 0 and tracer.dropped == 0
        assert span.end is None


#: sha256 of ``json.dumps(list(auditor.events), sort_keys=True)`` for
#: the shadowed replay below, recorded at the commit whose auditor kept
#: one dict per reservoir event.
PARENT_EVENTS_SHA256 = (
    "8e8542d5178da87b523d4bc8667e514ed4df6de395748df6e2edbf9fc80e2d10"
)
#: that commit's key order of one event dict
PARENT_EVENT_KEYS = [
    "kind", "t", "lba", "nbytes", "n_merged", "iops", "window_requests",
    "band", "hint", "selected", "stored", "gated", "failed_75pct",
    "estimated", "est_verdict", "original", "payload", "slot_bytes",
    "slot_frac", "cpu_time", "response", "breakdown", "shadows",
]


@pytest.fixture(scope="module")
def shadowed_auditor():
    auditor = DecisionAuditor(shadows=parse_shadow_spec("lzf,native"))
    replay(
        make_workload("Fin1", max_requests=600), "EDC",
        ReplayConfig(capacity_mb=4), telemetry=Telemetry(Simulator()),
        auditor=auditor,
    )
    return auditor


def _no_tuples(value) -> bool:
    if isinstance(value, dict):
        return all(_no_tuples(v) for v in value.values())
    return not isinstance(value, tuple)


class TestAuditView:
    def test_events_equal_the_parent_dicts(self, shadowed_auditor):
        events = list(shadowed_auditor.events)
        assert len(events) == shadowed_auditor.n_decisions
        assert all(list(ev) == PARENT_EVENT_KEYS for ev in events)
        assert all(_no_tuples(ev) for ev in events)
        text = json.dumps(events, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            PARENT_EVENTS_SHA256
        )

    def test_events_is_a_read_only_sequence(self, shadowed_auditor):
        view = shadowed_auditor.events
        assert not hasattr(view, "append")
        assert view[-1] == view[len(view) - 1]
        assert view[:2] == [view[0], view[1]]
        with pytest.raises(IndexError):
            view[len(view)]
        # a fresh dict on every read, shadows included
        name = shadowed_auditor.shadow_names[0]
        view[0]["shadows"][name]["payload"] = -1
        assert view[0]["shadows"][name]["payload"] >= 0

    def test_unshadowed_events_read_back_an_empty_shadow_map(self):
        auditor = DecisionAuditor()
        replay(make_workload("Fin1", max_requests=200), "EDC",
               ReplayConfig(capacity_mb=4), auditor=auditor)
        assert auditor.events and all(
            ev["shadows"] == {} and ev["breakdown"] is None
            for ev in auditor.events
        )


def test_gc_episode_is_slotted():
    health = DeviceHealth()
    replay(make_workload("Prxy_0", max_requests=2000), "Native",
           ReplayConfig(capacity_mb=4, fold_fraction=0.4, pool_blocks=32),
           health=health)
    episode = health.episodes[0]
    assert type(episode) is GcEpisode
    assert not hasattr(episode, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        episode.t = 0.0
