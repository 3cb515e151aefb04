"""Tests for ring-buffered time series and the periodic sampler.

The replay test at the bottom checks the acceptance property end to
end: a Fin1 EDC replay with the sampler attached produces the full
standard vocabulary (>= 8 series) plus exact band-switch markers, and
the sampled values agree with the device's own final statistics.
"""

import io
import json

import pytest

from repro.bench.experiments import ReplayConfig, replay
from repro.sim.engine import Simulator
from repro.telemetry import (
    MarkerSeries,
    RingSeries,
    TimeSeriesSampler,
    dump_timeseries_jsonl,
    render_dashboard,
    sparkline,
)
from repro.traces.workloads import make_workload


# ----------------------------------------------------------------------
# RingSeries / MarkerSeries
# ----------------------------------------------------------------------
class TestRingSeries:
    def test_append_and_points(self):
        s = RingSeries("x", capacity=8)
        for i in range(5):
            s.append(float(i), float(i * 10))
        ts, vs = s.points()
        assert ts == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert vs == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert s.last() == (4.0, 40.0)
        assert s.dropped == 0

    def test_wraparound_drops_oldest(self):
        s = RingSeries("x", capacity=4)
        for i in range(10):
            s.append(float(i), float(i))
        ts, vs = s.points()
        assert ts == [6.0, 7.0, 8.0, 9.0]  # chronological after wrap
        assert vs == ts
        assert len(s) == 4
        assert s.dropped == 6

    def test_rejects_nan(self):
        s = RingSeries("x", capacity=4)
        with pytest.raises(ValueError):
            s.append(0.0, float("nan"))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RingSeries("x", capacity=0)

    def test_empty(self):
        s = RingSeries("x", capacity=4)
        assert s.points() == ([], [])
        assert s.last() is None
        assert len(s) == 0

    def test_markers_bounded(self):
        m = MarkerSeries("band", capacity=3)
        for i in range(5):
            m.add(float(i), f"e{i}")
        assert [lbl for _, lbl in m.events()] == ["e2", "e3", "e4"]
        assert m.dropped == 2


# ----------------------------------------------------------------------
# sampler mechanics on a bare simulator
# ----------------------------------------------------------------------
class TestSampler:
    def test_periodic_ticks_on_sim_clock(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(interval=1.0)
        sampler.sim = sim  # bare binding: no device vocabulary
        clock = {"v": 0.0}
        sampler.register("clock", lambda: clock["v"])
        sampler.start()

        def bump():
            clock["v"] = sim.now

        for t in (0.5, 1.5, 2.5, 3.5):
            sim.schedule(t, bump)
        sim.run()
        # daemon ticks at 1,2,3 fire (before the last foreground event
        # at 3.5); run() then stops instead of ticking forever.
        ts, vs = sampler.series["clock"].points()
        assert ts == [1.0, 2.0, 3.0]
        assert vs == [0.5, 1.5, 2.5]
        assert sampler.ticks == 3

    def test_sampler_does_not_keep_run_alive(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(interval=0.1)
        sampler.sim = sim
        sampler.register("x", lambda: 1.0)
        sampler.start()
        sim.schedule(1.0, lambda: None)
        sim.run()  # must terminate
        assert sim.now == pytest.approx(1.0)

    def test_none_collector_skipped(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(interval=1.0)
        sampler.sim = sim
        sampler.register("maybe", lambda: None)
        sampler.start()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert len(sampler.series["maybe"]) == 0

    def test_register_multi_labels(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(interval=1.0)
        sampler.sim = sim
        sampler.register_multi(
            "share", lambda: {"a": 0.25, "b": 0.75}, label_key="codec"
        )
        sampler.start()
        sim.schedule(1.5, lambda: None)
        sim.run()
        assert sampler.series["share.a"].labels == {"codec": "a"}
        assert sampler.series["share.a"].values() == [0.25]
        assert sampler.series["share.b"].values() == [0.75]

    def test_start_requires_attach(self):
        with pytest.raises(RuntimeError):
            TimeSeriesSampler().start()

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(interval=0.0)
        with pytest.raises(ValueError):
            TimeSeriesSampler(interval=float("nan"))
        with pytest.raises(ValueError):
            TimeSeriesSampler(interval=float("inf"))

    def test_mark_and_stop(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(interval=1.0)
        sampler.sim = sim
        sampler.register("x", lambda: 1.0)
        sampler.start()
        sampler.mark("chan", "hello", t=0.5)
        sampler.stop()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sampler.ticks == 0  # stopped before any tick
        assert sampler.markers["chan"].events() == [(0.5, "hello")]


# ----------------------------------------------------------------------
# sparkline
# ----------------------------------------------------------------------
class TestSparkline:
    def test_resamples_to_width(self):
        out = sparkline(list(range(100)), width=10)
        assert len(out) == 10
        assert out[0] == "▁" and out[-1] == "█"

    def test_flat_series_renders_midline(self):
        # a constant series has no scale of its own: midline, not
        # bottom-pinned (which reads as "zero")
        assert sparkline([5.0, 5.0, 5.0], width=10) == "▄▄▄"
        assert sparkline([0.0, 0.0], width=10) == "▄▄"

    def test_single_sample_renders_midline(self):
        assert sparkline([7.5], width=10) == "▄"

    def test_empty(self):
        assert sparkline([], width=10) == ""


# ----------------------------------------------------------------------
# the full vocabulary over a real replay
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sampled_replay():
    sampler = TimeSeriesSampler(interval=0.25)
    trace = make_workload("Fin1", duration=8.0, seed=7)
    result = replay(
        trace, "EDC", ReplayConfig(capacity_mb=32, pool_blocks=32),
        sampler=sampler,
    )
    return sampler, result


class TestStandardVocabulary:
    def test_at_least_eight_series_sampled(self, sampled_replay):
        sampler, _ = sampled_replay
        nonempty = [n for n, s in sampler.series.items() if len(s) > 0]
        assert len(nonempty) >= 8
        for expected in (
            "monitor.calculated_iops",
            "monitor.raw_iops",
            "policy.band",
            "compression.ratio",
            "alloc.live_slots",
            "queue.depth.cpu",
            "gc.collections",
            "flash.write_amplification",
            "flash.busy_fraction",
        ):
            assert expected in nonempty

    def test_band_switch_markers_recorded(self, sampled_replay):
        sampler, _ = sampled_replay
        markers = sampler.markers["band_switch"].events()
        assert markers, "Fin1 bursts must cross the gzip threshold"
        for t, label in markers:
            assert t >= 0.0
            assert "->" in label

    def test_final_samples_match_device_stats(self, sampled_replay):
        sampler, result = sampled_replay
        _, ratio = sampler.series["compression.ratio"].last()
        assert ratio == pytest.approx(result.compression_ratio, rel=0.05)
        _, wa = sampler.series["flash.write_amplification"].last()
        assert wa == pytest.approx(result.write_amplification, rel=0.05)

    def test_codec_share_series_carry_labels(self, sampled_replay):
        sampler, result = sampled_replay
        shares = {
            name.split(".")[-1]: s
            for name, s in sampler.series.items()
            if name.startswith("codec.write_share.")
        }
        assert set(shares) <= set(result.codec_shares)
        for codec, s in shares.items():
            assert s.labels == {"codec": codec}
            assert s.metric == "codec.write_share"

    def test_sampler_observation_is_passive(self):
        trace = make_workload("Fin1", duration=4.0, seed=3)
        cfg = ReplayConfig(capacity_mb=32, pool_blocks=32)
        plain = replay(trace, "EDC", cfg)
        sampled = replay(trace, "EDC", cfg,
                         sampler=TimeSeriesSampler(interval=0.25))
        assert sampled.mean_response == plain.mean_response
        assert sampled.compression_ratio == plain.compression_ratio

    def test_dashboard_renders(self, sampled_replay):
        sampler, _ = sampled_replay
        text = render_dashboard(sampler, width=40)
        assert "time-series dashboard" in text
        assert "policy.band" in text
        assert "band switches" in text and "^" in text
        assert "markers[band_switch]" in text

    def test_jsonl_dump_round_trips(self, sampled_replay):
        sampler, _ = sampled_replay
        fp = io.StringIO()
        n = dump_timeseries_jsonl(sampler, fp)
        lines = fp.getvalue().strip().splitlines()
        assert len(lines) == n
        docs = [json.loads(line) for line in lines]
        series_docs = [d for d in docs if "series" in d]
        marker_docs = [d for d in docs if "markers" in d]
        assert {d["series"] for d in series_docs} == {
            n for n, s in sampler.series.items() if len(s) > 0
        }
        assert marker_docs and marker_docs[0]["events"]
        for d in series_docs:
            assert len(d["t"]) == len(d["v"])
