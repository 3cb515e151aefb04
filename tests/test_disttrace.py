"""Distributed tracing: critical-path math, conservation, bit-identity."""

import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.bench.cluster import run_cluster, tenant_roster
from repro.cluster import ClusterReplayConfig, ClusterReplayer, build_cluster
from repro.faults.plan import FaultPlan
from repro.telemetry import (
    Span,
    Tracer,
    child_index,
    critical_path,
    dump_chrome_trace,
    dump_jsonl,
    render_exposition,
    parse_exposition,
    TimeSeriesSampler,
)
from repro.telemetry import spans as spans_module
from repro.telemetry.disttrace import analyze_critical_paths
from repro.traces.multitenant import make_tenant_streams


def _manual_tracer():
    t = [0.0]
    tracer = Tracer(lambda: t[0])
    return tracer


# ----------------------------------------------------------------------
# critical_path unit behaviour
# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_leaf_root_is_one_span_segment(self):
        tracer = _manual_tracer()
        root = tracer.record("cluster.write", "request", 0.0, 10.0)
        segs = critical_path(root, child_index(tracer))
        assert len(segs) == 1
        assert segs[0].kind == "span"
        assert segs[0].name == "cluster.write"
        assert segs[0].duration == pytest.approx(10.0)

    def test_partition_with_gaps_and_overlap(self):
        tracer = _manual_tracer()
        root = tracer.record("cluster.write", "request", 0.0, 10.0)
        tracer.record("a", "queue", 1.0, 4.0, parent=root)
        tracer.record("b", "flash_program", 3.0, 9.0, parent=root)
        segs = critical_path(root, child_index(tracer))
        # Walk backward from 10: [9,10] root self, [3,9] b, [1,3] a
        # (clipped by b's start), [0,1] root self.
        total = sum(s.duration for s in segs)
        assert total == pytest.approx(10.0)
        names = [s.name for s in segs]
        assert names == ["cluster.write.self", "a", "b", "cluster.write.self"]
        kinds = [s.kind for s in segs]
        assert kinds == ["self", "span", "span", "self"]
        # segments are disjoint and ordered
        for prev, nxt in zip(segs, segs[1:]):
            assert prev.end == pytest.approx(nxt.start)

    def test_nested_descent(self):
        tracer = _manual_tracer()
        root = tracer.record("cluster.write", "request", 0.0, 8.0)
        part = tracer.record("shard.part", "shard", 1.0, 8.0, parent=root)
        tracer.record("flash", "flash_program", 2.0, 7.0, parent=part)
        segs = critical_path(root, child_index(tracer))
        assert sum(s.duration for s in segs) == pytest.approx(8.0)
        assert [s.name for s in segs] == [
            "cluster.write.self", "shard.part.self", "flash",
            "shard.part.self",
        ]

    def test_zero_length_children_terminate(self):
        tracer = _manual_tracer()
        root = tracer.record("cluster.write", "request", 0.0, 5.0)
        for _ in range(4):
            tracer.record("z", "queue", 2.0, 2.0, parent=root)
        segs = critical_path(root, child_index(tracer))
        assert sum(s.duration for s in segs) == pytest.approx(5.0)

    def test_open_root_rejected(self):
        tracer = _manual_tracer()
        root = tracer.start("cluster.write", "request")
        with pytest.raises(ValueError):
            critical_path(root, {})


# ----------------------------------------------------------------------
# traced cluster runs
# ----------------------------------------------------------------------
class TestTracedCluster:
    @pytest.fixture(scope="class")
    def traced_report(self):
        return run_cluster(
            n_shards=3, n_tenants=6, max_requests=200, trace=True
        )

    def test_run_passes_and_conserves(self, traced_report):
        r = traced_report
        assert r.ok, r.failures
        critical = r.live["critical"]
        assert critical.ok
        assert critical.n_traces > 0
        # critical-path totals must land in real layers, not just self
        assert critical.layer_seconds
        assert r.sections["critical_path"]["layer_seconds"] == critical.layer_seconds
        assert "OK" in r.sections["critical_path"]["text"]

    def test_every_request_traced(self, traced_report):
        r = traced_report
        tracing = r.live["tracing"]
        assert len(tracing.completed) == r.results["n_requests"]
        assert tracing.open_traces() == 0
        assert tracing.tracer.open_spans == 0

    def test_device_layers_nest_under_cluster_roots(self, traced_report):
        layers = {s.layer for s in traced_report.live["tracing"].tracer}
        assert {"request", "flash_program"} <= layers
        # migration spans rode along (the exhibit forces one migration)
        assert "migration" in layers

    def test_exemplars_point_at_worst_latency(self, traced_report):
        tr = traced_report.live["tracing"]
        assert tr.exemplars
        for tenant, ex in tr.exemplars.items():
            assert ex.tenant == tenant
            assert ex.latency > 0
        keyed = tr.exposition_exemplars()
        assert all(k.startswith("cluster.tenant_p95.") for k in keyed)

    def test_conservation_detects_inflated_latency(self, traced_report):
        tr = traced_report.live["tracing"]
        sid, rec = next(iter(tr.completed.items()))
        broken = dict(tr.completed)
        broken[sid] = type(rec)(
            trace_id=rec.trace_id, tenant=rec.tenant,
            root_span_id=rec.root_span_id,
            latency=rec.latency + 1.0, parts=rec.parts,
        )

        class Fake:
            tracer = tr.tracer
            completed = broken

        report = analyze_critical_paths(Fake())
        assert not report.ok
        assert len(report.violations) == 1


class TestTraceOffBitIdentity:
    def _run(self, tracing):
        specs = tenant_roster(4)
        fleet = build_cluster(
            specs, ClusterReplayConfig(n_shards=2, capacity_mb=64),
            tracing=tracing,
        )
        replayer = ClusterReplayer(fleet)
        streams = make_tenant_streams(
            [s.name for s in specs], max_requests=150, seed=7
        )
        for stream in streams:
            replayer.schedule(stream.tenant, stream.trace)
        outcome = replayer.run()
        samples = {
            name: list(st.latency._samples)
            for name, st in fleet.cluster.scheduler.tenants.items()
        }
        digests = {
            name: (dev.mapping.state_digest(), dev.allocator.state_digest())
            for name, dev in fleet.devices.items()
        }
        return outcome.horizon, samples, digests

    def test_traced_run_bit_identical_to_untraced(self):
        assert self._run(False) == self._run(True)

    def test_untraced_fleet_holds_no_tracer(self):
        specs = tenant_roster(2)
        fleet = build_cluster(
            specs, ClusterReplayConfig(n_shards=2, capacity_mb=64)
        )
        assert fleet.tracing is None
        assert fleet.cluster.tracer is None
        assert all(not dev.observers for dev in fleet.devices.values())


# ----------------------------------------------------------------------
# a chaos run with rebuilds and hedges: exact bookkeeping, same bytes
# ----------------------------------------------------------------------
CHAOS_PLAN = Path(__file__).resolve().parents[1] / "benchmarks/cluster_chaos.json"

#: sha256 of the run's Chrome trace dump, recorded at commit d040d5a
#: (the last one whose tracer keyed in-flight state by ``id()``), and
#: re-recorded once since: when the SD hold span ``queue.sd`` in layer
#: ``queue`` became ``sd_hold`` in its own layer.  Every complete event
#: came out the same but for that name and category and the thread ids
#: the new layer's lane shifts.
CHAOS_TRACE_SHA256 = (
    "00e7d814733ace530612c5a9a5cb7126d0a98aeb66aa2a5587c8bad040ae1203"
)


class TestChaosTraceBookkeeping:
    @pytest.fixture(scope="class")
    def chaos_report(self):
        return run_cluster(
            n_shards=3, n_tenants=4, max_requests=600,
            fault_plan=FaultPlan.from_json(str(CHAOS_PLAN)),
            replication_factor=2, hedge_reads=True, trace=True,
        )

    def test_run_rebuilds_and_hedges(self, chaos_report):
        replication = chaos_report.sections["replication"]
        assert replication["rebuilds_started"] == 128
        assert replication["hedged_reads"] == 2

    def test_every_in_flight_map_ends_empty(self, chaos_report):
        """Rebuild ingests never arrive at a device and rebuild-tenant
        reads never reach dispatch; neither may leave an entry behind."""
        tr = chaos_report.live["tracing"]
        maps = {
            "ctx": tr.ctx, "_live": tr._live, "_parts": tr._parts,
            "_queued": tr._queued, "_attempts": tr._attempts,
            "_migrations": tr._migrations, "_rebuilds": tr._rebuilds,
        }
        assert {name: len(m) for name, m in maps.items() if m} == {}

    def test_chrome_trace_matches_the_id_keyed_tracer(self, chaos_report):
        fp = io.StringIO()
        dump_chrome_trace(chaos_report.live["tracing"].tracer, fp)
        digest = hashlib.sha256(fp.getvalue().encode()).hexdigest()
        assert digest == CHAOS_TRACE_SHA256


# ----------------------------------------------------------------------
# exporters and span hygiene
# ----------------------------------------------------------------------
class TestExporters:
    def test_chrome_trace_is_valid_and_skips_open_spans(self):
        r = run_cluster(n_shards=2, n_tenants=4, max_requests=100, trace=True)
        tracer = r.live["tracing"].tracer
        retained = len(tracer)
        tracer.start("hung", "request")  # started, never finished
        fp = io.StringIO()
        n = dump_chrome_trace(tracer, fp)
        doc = json.loads(fp.getvalue())
        events = doc["traceEvents"]
        assert n == sum(1 for e in events if e["ph"] == "X") == retained
        assert doc["otherData"]["open_spans"] == 1
        assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")
        assert not any(
            e.get("name") == "hung" for e in events if e["ph"] == "X"
        )
        pids = {e["pid"] for e in events}
        assert len(pids) >= 2  # cluster + at least one shard group

    def test_jsonl_header_reports_drops(self, monkeypatch):
        monkeypatch.setattr(spans_module, "MAX_SPANS", 1)
        tracer = Tracer(lambda: 0.0)
        tracer.record("a", "queue", 0.0, 1.0)
        tracer.record("b", "queue", 0.0, 1.0)
        assert tracer.dropped == 1
        fp = io.StringIO()
        dump_jsonl(tracer, fp)
        first = json.loads(fp.getvalue().splitlines()[0])
        assert first["meta"] == "trace_header"
        assert first["dropped"] == 1
        assert first["retained"] == 1

    def test_open_span_to_dict(self):
        span = Span(1, "x", "queue", 2.0)
        d = span.to_dict()
        assert d["end"] is None
        assert d["duration"] is None
        span.end = 3.0
        d = span.to_dict()
        assert d["end"] == 3.0
        assert d["duration"] == pytest.approx(1.0)

    def test_exposition_exemplars_round_trip(self):
        sampler = TimeSeriesSampler(interval=0.25)
        s = sampler.series_for(
            "cluster.tenant_p95.t0", metric="cluster.tenant_p95",
            labels={"tenant": "t0"},
        )
        s.append(1.0, 0.5)
        text = render_exposition(
            sampler=sampler,
            exemplars={
                "cluster.tenant_p95.t0": ({"trace_id": "42"}, 0.9, 1.0)
            },
        )
        line = next(
            l for l in text.splitlines()
            if "tenant_p95" in l and not l.startswith("#") and " # " in l
        )
        assert '# {trace_id="42"}' in line
        snapshot = parse_exposition(text)  # exemplar suffix must parse away
        names = {name for name, _labels in snapshot}
        assert any("tenant_p95" in n for n in names)
