"""Burn-rate alerting: window math, fire/clear determinism, rendering."""

import pytest

from repro.bench.cluster import run_cluster
from repro.telemetry import (
    BurnRateEngine,
    TimeSeriesSampler,
    render_alert_timeline,
    render_dashboard,
    render_exposition,
    parse_exposition,
)
from repro.telemetry.alerts import SLOW_WINDOW


class TestWindowMath:
    def test_burn_from_cumulative_counters(self):
        eng = BurnRateEngine()
        eng.observe("t", 0.0, 0, 0)
        ev = eng.observe("t", 0.25, 10, 5)
        st = eng.states["t"]
        # 5 violations / 10 completed over both windows, budget 5 %
        assert st.fast_burn == pytest.approx(10.0)
        assert st.slow_burn == pytest.approx(10.0)
        assert ev is not None and ev.kind == "fire"
        assert st.firing

    def test_min_samples_gate(self):
        eng = BurnRateEngine()
        eng.observe("t", 0.0, 0, 0)
        eng.observe("t", 0.25, 3, 3)  # 100 % violations, but only 3 done
        st = eng.states["t"]
        assert st.fast_burn == 0.0
        assert not st.firing

    def test_same_tick_observation_is_idempotent(self):
        eng = BurnRateEngine()
        eng.observe("t", 0.0, 0, 0)
        eng.observe("t", 0.25, 10, 5)
        eng.observe("t", 0.25, 10, 5)
        assert len(eng.states["t"].samples) == 2
        assert len(eng.events) == 1

    def test_fire_then_clear_with_hysteresis(self):
        eng = BurnRateEngine()
        eng.observe("t", 0.0, 0, 0)
        assert eng.observe("t", 0.25, 10, 5).kind == "fire"
        # burst over, completions keep flowing: still firing at 0.5s
        # because both windows still see the burst
        assert eng.observe("t", 0.5, 20, 5) is None
        assert eng.states["t"].firing
        # once both windows' baselines pass the burst, burn drops to 0
        ev = eng.observe("t", 3.0, 40, 5)
        assert ev is not None and ev.kind == "clear"
        assert not eng.states["t"].firing
        assert [e.kind for e in eng.events] == ["fire", "clear"]
        assert eng.firing == []

    def test_sample_pruning_keeps_slow_baseline(self):
        eng = BurnRateEngine()
        for i in range(100):
            eng.observe("t", i * 0.25, i * 10, 0)
        samples = eng.states["t"].samples
        # bounded by the slow window, not the observation count
        assert len(samples) <= int(2.5 / 0.25) + 2
        # exactly one sample at or before the slow horizon survives
        horizon = samples[-1][0] - SLOW_WINDOW
        assert samples[0][0] <= horizon
        assert all(s[0] > horizon for s in list(samples)[1:])


class TestClusterIntegration:
    @pytest.fixture(scope="class")
    def run(self):
        sampler = TimeSeriesSampler(interval=0.25)
        engine = BurnRateEngine()
        report = run_cluster(
            n_shards=3, n_tenants=6, max_requests=300,
            sampler=sampler, alerts=engine,
        )
        return report, sampler, engine

    def test_seeded_run_fires_and_clears(self, run):
        report, _sampler, engine = run
        assert report.ok, report.failures
        kinds = [e.kind for e in engine.events]
        assert "fire" in kinds and "clear" in kinds
        # the overloaded throttled tenant is the one paged on
        fired = {e.tenant for e in engine.events if e.kind == "fire"}
        assert fired, "no tenant fired"

    def test_deterministic_replay(self, run):
        _report, _sampler, engine = run
        sampler2 = TimeSeriesSampler(interval=0.25)
        engine2 = BurnRateEngine()
        run_cluster(
            n_shards=3, n_tenants=6, max_requests=300,
            sampler=sampler2, alerts=engine2,
        )
        assert [
            (e.tenant, e.kind, e.t) for e in engine.events
        ] == [
            (e.tenant, e.kind, e.t) for e in engine2.events
        ]

    def test_alert_series_and_markers_exported(self, run):
        _report, sampler, engine = run
        assert any(n.startswith("alert.firing.") for n in sampler.series)
        assert any(n.startswith("alert.fast_burn.") for n in sampler.series)
        marks = sampler.markers["alerts"].events()
        assert [
            label for _t, label in marks
        ] == [f"{e.tenant}:{e.kind}" for e in engine.events]

    def test_dashboard_alert_panel(self, run):
        _report, sampler, engine = run
        text = render_dashboard(sampler, alerts=engine)
        assert "── alerts" in text
        assert "fires" in text

    def test_exposition_round_trip(self, run):
        _report, sampler, _engine = run
        text = render_exposition(sampler=sampler)
        snapshot = parse_exposition(text)
        assert any("alert_firing" in name for name, _labels in snapshot)


class TestTimelineRender:
    def test_fired_interval_marked(self):
        eng = BurnRateEngine()
        eng.observe("t", 0.0, 0, 0)
        eng.observe("t", 0.25, 10, 5)
        eng.observe("t", 3.0, 40, 5)
        text = render_alert_timeline(eng, 0.0, 4.0, width=40)
        row = next(l for l in text.splitlines() if l.startswith("t"))
        assert "#" in row and "." in row
        assert "ok" in row and "fires 1" in row

    def test_still_firing_extends_to_edge(self):
        eng = BurnRateEngine()
        eng.observe("t", 0.0, 0, 0)
        eng.observe("t", 0.25, 10, 5)
        text = render_alert_timeline(eng, 0.0, 1.0, width=20)
        row = next(l for l in text.splitlines() if l.startswith("t"))
        assert row.rstrip().split()[1].endswith("#")
        assert "FIRING" in row

    def test_width_validated(self):
        with pytest.raises(ValueError):
            render_alert_timeline(BurnRateEngine(), 0.0, 1.0, width=0)
