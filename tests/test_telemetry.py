"""Tests for the telemetry subsystem: spans, histograms, export.

The replay smoke test at the bottom checks the headline property of the
whole instrumentation design: on a single-SSD backend the per-layer
write breakdown (queue + estimate + compress + flash_program + gc_stall)
sums to the end-to-end response time within 1 %.
"""

import io
import json

import numpy as np
import pytest

from repro.bench.experiments import ReplayConfig, replay
from repro.sim.engine import Simulator
from repro.telemetry import (
    LAYERS,
    Counter,
    Gauge,
    Log2Histogram,
    MetricsRegistry,
    Telemetry,
    Tracer,
    ascii_flamegraph,
    dump_jsonl,
    layer_breakdown_rows,
    render_layer_breakdown,
    render_telemetry_summary,
)
from repro.traces.workloads import make_workload


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_timing_follows_sim_clock(self):
        sim = Simulator()
        tracer = Tracer(lambda: sim.now)
        spans = []

        def start():
            spans.append(tracer.start("write", layer="request"))

        def stop():
            tracer.finish(spans[0])

        sim.schedule(1.0, start)
        sim.schedule(3.5, stop)
        sim.run()
        (s,) = tracer.spans
        assert s.start == 1.0
        assert s.end == 3.5
        assert s.duration == pytest.approx(2.5)

    def test_nesting_via_parent_id(self):
        tracer = Tracer(lambda: 0.0)
        root = tracer.start("write")
        child = tracer.start("compress", layer="compress", parent=root)
        grandchild = tracer.start("estimate", layer="estimate", parent=child)
        for s in (grandchild, child, root):
            tracer.finish(s, end=1.0)
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id

    def test_record_is_start_plus_finish(self):
        tracer = Tracer(lambda: 99.0)  # clock must not be consulted
        s = tracer.record("queue.cpu", "queue", 1.0, 2.0, codec="lzf")
        assert (s.start, s.end) == (1.0, 2.0)
        assert s.tags == {"codec": "lzf"}
        assert len(tracer) == 1

    def test_end_before_start_rejected(self):
        tracer = Tracer(lambda: 5.0)
        s = tracer.start("x", start=10.0)
        with pytest.raises(ValueError):
            tracer.finish(s)  # now=5.0 < start

    def test_max_spans_drops_but_counts(self):
        tracer = Tracer(lambda: 0.0, max_spans=2)
        for _ in range(5):
            tracer.record("x", "request", 0.0, 1.0)
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_layer_totals(self):
        tracer = Tracer(lambda: 0.0)
        tracer.record("a", "compress", 0.0, 2.0)
        tracer.record("b", "compress", 0.0, 1.0)
        tracer.record("c", "queue", 0.0, 4.0)
        totals = tracer.layer_totals()
        assert totals["compress"] == (2, pytest.approx(3.0))
        assert totals["queue"] == (1, pytest.approx(4.0))

    def test_layer_vocabulary(self):
        assert "request" in LAYERS
        assert "gc_stall" in LAYERS
        assert "read_decompress" in LAYERS

    def test_to_dict_round_trips_through_json(self):
        tracer = Tracer(lambda: 0.0)
        s = tracer.record("write", "request", 0.5, 1.25, lba=4096)
        d = json.loads(json.dumps(s.to_dict()))
        assert d["name"] == "write"
        assert d["duration"] == pytest.approx(0.75)
        assert d["tags"] == {"lba": 4096}


# ----------------------------------------------------------------------
# histograms / metrics
# ----------------------------------------------------------------------
class TestLog2Histogram:
    def test_percentiles_match_numpy_within_bucket_error(self):
        # 16 sub-buckets per decade bound relative error by 1/16 = 6.25 %.
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-8.0, sigma=1.5, size=5000)
        h = Log2Histogram(sub_buckets=16)
        for v in samples:
            h.add(float(v))
        for p in (50, 90, 95, 99, 99.9):
            exact = float(np.percentile(samples, p))
            approx = h.percentile(p)
            # extreme tail quantiles interpolate over very few order
            # statistics, so numpy's own estimate wobbles there too
            rel = 0.08 if p <= 99 else 0.15
            assert approx == pytest.approx(exact, rel=rel), f"p{p}"

    def test_exact_min_max_and_mean(self):
        h = Log2Histogram()
        for v in (0.001, 0.002, 0.004):
            h.add(v)
        assert h.min() == 0.001
        assert h.max() == 0.004
        assert h.percentile(0) == 0.001
        assert h.percentile(100) == 0.004
        assert h.mean() == pytest.approx(0.007 / 3)

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            Log2Histogram().percentile(50)

    def test_nan_and_negative_rejected(self):
        h = Log2Histogram()
        with pytest.raises(ValueError):
            h.add(float("nan"))
        with pytest.raises(ValueError):
            h.add(-1.0)

    def test_zero_samples_land_in_zero_bucket(self):
        h = Log2Histogram()
        h.add(0.0, n=10)
        h.add(1.0)
        assert h.count == 11
        assert h.percentile(50) == 0.0
        assert h.percentile(100) == 1.0

    def test_merge(self):
        a, b = Log2Histogram(), Log2Histogram()
        a.add(0.001)
        b.add(0.1)
        a.merge(b)
        assert a.count == 2
        assert a.max() == 0.1
        with pytest.raises(ValueError):
            a.merge(Log2Histogram(sub_buckets=8))

    def test_quantile_labels(self):
        h = Log2Histogram()
        h.add(1.0)
        q = h.quantiles()
        assert set(q) == {"p50", "p95", "p99", "p99_9"}

    def test_memory_is_constant(self):
        h = Log2Histogram()
        for i in range(10_000):
            h.add(1e-6 * (1 + i % 997))
        assert len(h._counts) == (h.max_exp - h.min_exp) * h.sub_buckets


class TestCountersGaugesRegistry:
    def test_counter_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_watermarks(self):
        g = Gauge("x")
        g.set(5.0)
        g.set(1.0)
        g.set(3.0)
        assert (g.value, g.min, g.max) == (3.0, 1.0, 5.0)
        with pytest.raises(ValueError):
            g.set(float("nan"))

    def test_registry_creates_on_first_use(self):
        m = MetricsRegistry()
        m.counter("a").inc()
        m.counter("a").inc()
        assert m.counter("a").value == 2.0
        m.histogram("h").add(1.0)
        d = m.as_dict()
        assert d["counters"]["a"] == 2.0
        assert d["histograms"]["h"]["count"] == 1.0


# ----------------------------------------------------------------------
# end-to-end: replay with telemetry attached
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def instrumented_replay():
    telemetry = Telemetry(Simulator())
    trace = make_workload("Fin1", duration=None, max_requests=600, seed=7)
    cfg = ReplayConfig(capacity_mb=32, pool_blocks=32)
    result = replay(trace, "EDC", cfg, telemetry=telemetry)
    return telemetry, result


class TestReplaySmoke:
    def test_write_layers_sum_to_end_to_end(self, instrumented_replay):
        telemetry, _ = instrumented_replay
        b = telemetry.write_breakdown()
        assert b["n_requests"] > 0
        assert b["end_to_end"] > 0
        # headline acceptance criterion: residual within 1 % end-to-end
        assert abs(b["unattributed"]) <= 0.01 * b["end_to_end"]
        layer_sum = sum(
            b[k] for k in ("queue", "estimate", "compress",
                           "flash_program", "gc_stall")
        )
        assert layer_sum == pytest.approx(b["end_to_end"], rel=0.01)

    def test_read_breakdown_populated(self, instrumented_replay):
        telemetry, _ = instrumented_replay
        b = telemetry.read_breakdown()
        if b["n_requests"]:
            assert b["flash_program"] > 0
            # pieces can overlap on the device: allow a looser residual
            assert abs(b["unattributed"]) <= 0.05 * b["end_to_end"]

    def test_mean_response_agrees_with_device(self, instrumented_replay):
        telemetry, result = instrumented_replay
        total = telemetry.write_end_to_end + telemetry.read_end_to_end
        n = telemetry.write_requests + telemetry.read_requests
        assert n == result.n_requests
        assert total / n == pytest.approx(result.mean_response, rel=1e-6)

    def test_spans_nest_under_request_roots(self, instrumented_replay):
        telemetry, _ = instrumented_replay
        by_id = {s.span_id: s for s in telemetry.tracer.spans}
        roots = [s for s in telemetry.tracer.spans if s.layer == "request"]
        children = [s for s in telemetry.tracer.spans
                    if s.parent_id is not None]
        assert roots and children
        for s in children:
            if s.parent_id in by_id:
                parent = by_id[s.parent_id]
                assert parent.layer == "request"
                assert s.start >= parent.start - 1e-12

    def test_histograms_populated(self, instrumented_replay):
        telemetry, _ = instrumented_replay
        hists = telemetry.metrics.histograms
        assert hists["write.response"].count == telemetry.write_requests
        assert hists["flash.write_service"].count > 0


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_dump_jsonl(self, instrumented_replay):
        telemetry, _ = instrumented_replay
        fp = io.StringIO()
        n = dump_jsonl(telemetry.tracer, fp)
        lines = fp.getvalue().strip().splitlines()
        assert n == len(telemetry.tracer.spans)
        assert len(lines) == n  # no drops in this small replay
        first = json.loads(lines[0])
        assert {"name", "layer", "start", "end"} <= set(first)

    def test_layer_breakdown_rows(self, instrumented_replay):
        telemetry, _ = instrumented_replay
        rows = layer_breakdown_rows(telemetry)
        layers = [r[0] for r in rows["write"]]
        assert layers[:5] == ["queue", "estimate", "compress",
                              "flash_program", "gc_stall"]
        assert "end_to_end" in layers and "unattributed" in layers

    def test_render_functions_return_text(self, instrumented_replay):
        telemetry, _ = instrumented_replay
        table = render_layer_breakdown(telemetry)
        assert "flash_program" in table
        summary = render_telemetry_summary(telemetry)
        assert "write path" in summary and "flame" in summary
        flame = ascii_flamegraph(telemetry.tracer)
        assert "write" in flame


class TestExporterEdgeCases:
    def test_dump_jsonl_empty_tracer(self):
        sim = Simulator()
        tracer = Tracer(lambda: sim.now)
        fp = io.StringIO()
        assert dump_jsonl(tracer, fp) == 0
        assert fp.getvalue() == ""

    def test_flamegraph_no_spans(self):
        sim = Simulator()
        tracer = Tracer(lambda: sim.now)
        assert ascii_flamegraph(tracer) == "(no spans recorded)"

    def test_flamegraph_single_span(self):
        sim = Simulator()
        tracer = Tracer(lambda: sim.now)
        span = tracer.start("write", layer="request")
        sim.schedule(2.0, lambda: tracer.finish(span))
        sim.run()
        flame = ascii_flamegraph(tracer)
        lines = flame.splitlines()
        assert len(lines) == 2  # header + the one path
        assert "total 2000.000 ms" in lines[0]
        assert lines[1].lstrip().startswith("write")
        assert "n=1" in lines[1]

    def test_breakdown_table_zero_requests(self):
        # A telemetry object that never saw a request must still render
        # without dividing by zero.
        telemetry = Telemetry(Simulator())
        rows = layer_breakdown_rows(telemetry)
        for path in ("write", "read"):
            for _layer, total, share, mean_us in rows[path]:
                assert total == 0.0
                assert share == 0.0
                assert mean_us == 0.0
        table = render_layer_breakdown(telemetry)
        assert "(0 requests)" in table

    def test_summary_zero_requests(self):
        telemetry = Telemetry(Simulator())
        summary = render_telemetry_summary(telemetry)
        assert "write path" in summary
        assert "(no spans recorded)" in summary
