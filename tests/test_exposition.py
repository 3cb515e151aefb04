"""Tests for the Prometheus-style text exposition (render + parse).

The golden-file test pins the exact rendered output of a hand-built
registry + sampler, so any formatting drift is a conscious change
(regenerate with ``python tests/data/make_exposition_golden.py``).
"""

import os

import pytest

from repro.telemetry import (
    ExpositionError,
    MetricsRegistry,
    TimeSeriesSampler,
    parse_exposition,
    render_exposition,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "exposition_golden.txt")


def build_fixture():
    """The deterministic registry + sampler behind the golden file."""
    metrics = MetricsRegistry()
    h = metrics.histogram("latency_s")
    for v in (0.001, 0.002, 0.004, 0.25):
        h.add(v)
    sampler = TimeSeriesSampler(interval=0.5)
    s = sampler.series_for("compression.ratio", metric="compression.ratio")
    s.append(1.0, 1.25)
    s.append(1.5, 1.5)
    for codec, share in (("lzf", 0.75), ("gzip", 0.25)):
        cs = sampler.series_for(
            f"codec.write_share.{codec}",
            metric="codec.write_share", labels={"codec": codec},
        )
        cs.append(1.5, share)
    sampler.mark("band_switch", "0->1", t=0.75)
    # a label value exercising every text-format escape
    ns = sampler.series_for(
        "trace.note",
        metric="trace.note",
        labels={"note": 'say "hi"\\\nbye'},
    )
    ns.append(1.5, 1.0)
    return metrics, sampler


class TestRender:
    def test_counter_and_gauge_families(self):
        # Counters and gauges come from the sampler (marker channels and
        # ticks, latest series points); the registry holds histograms only.
        metrics, sampler = build_fixture()
        types = [l.split()[3] for l in render_exposition(metrics=metrics)
                 .splitlines() if l.startswith("# TYPE")]
        assert types == ["histogram"]
        text = render_exposition(sampler=sampler)
        assert "# TYPE edc_marker_band_switch_total counter" in text
        assert "# TYPE edc_sampler_ticks_total counter" in text
        assert "# TYPE edc_ts_compression_ratio gauge" in text
        assert "edc_ts_compression_ratio 1.5" in text

    def test_histogram_is_cumulative(self):
        metrics, _ = build_fixture()
        text = render_exposition(metrics=metrics)
        lines = [l for l in text.splitlines()
                 if l.startswith("edc_latency_s")]
        buckets = [l for l in lines if "_bucket" in l]
        counts = [float(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert buckets[-1].startswith('edc_latency_s_bucket{le="+Inf"}')
        assert counts[-1] == 4.0
        assert "edc_latency_s_count 4.0" in text
        assert any(l.startswith("edc_latency_s_sum") for l in lines)

    def test_sampler_series_become_labelled_gauges(self):
        _, sampler = build_fixture()
        text = render_exposition(sampler=sampler)
        assert "edc_ts_compression_ratio 1.5" in text
        assert 'edc_ts_codec_write_share{codec="lzf"} 0.75' in text
        assert 'edc_ts_codec_write_share{codec="gzip"} 0.25' in text
        assert "edc_marker_band_switch_total 1.0" in text

    def test_no_duplicate_samples(self):
        metrics, sampler = build_fixture()
        text = render_exposition(metrics=metrics, sampler=sampler)
        seen = set()
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            key = line.rsplit(" ", 1)[0]
            assert key not in seen, f"duplicate sample {key!r}"
            seen.add(key)


class TestRoundTrip:
    def test_render_parse_round_trip(self):
        metrics, sampler = build_fixture()
        text = render_exposition(metrics=metrics, sampler=sampler)
        samples = parse_exposition(text)
        assert samples[("edc_latency_s_count", ())] == 4.0
        assert samples[("edc_marker_band_switch_total", ())] == 1.0
        assert samples[
            ("edc_ts_codec_write_share", (("codec", "lzf"),))
        ] == 0.75
        # every non-comment line parsed into exactly one sample
        n_lines = sum(
            1 for l in text.splitlines() if l.strip() and not l.startswith("#")
        )
        assert len(samples) == n_lines

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ExpositionError):
            parse_exposition("this is not a metric line\n")

    def test_parse_rejects_bad_value(self):
        with pytest.raises(ExpositionError):
            parse_exposition("edc_x pancake\n")

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ExpositionError):
            parse_exposition("edc_x 1.0\nedc_x 2.0\n")

    def test_parse_skips_comments_and_blanks(self):
        samples = parse_exposition("# HELP edc_x y\n\nedc_x 1.0\n")
        assert samples == {("edc_x", ()): 1.0}


class TestEscaping:
    def test_label_value_escapes_rendered(self):
        _, sampler = build_fixture()
        text = render_exposition(sampler=sampler)
        assert r'edc_ts_trace_note{note="say \"hi\"\\\nbye"} 1.0' in text

    def test_escaped_labels_round_trip(self):
        _, sampler = build_fixture()
        samples = parse_exposition(render_exposition(sampler=sampler))
        assert samples[
            ("edc_ts_trace_note", (("note", 'say "hi"\\\nbye'),))
        ] == 1.0

    def test_literal_brace_and_comma_in_value(self):
        # '}' and ',' inside quotes must not terminate the label body
        samples = parse_exposition('edc_x{a="b}c,d=\\"e"} 2.0\n')
        assert samples == {("edc_x", (("a", 'b}c,d="e'),)): 2.0}

    def test_help_text_escaped(self):
        from repro.telemetry.histograms import MetricsRegistry

        m = MetricsRegistry()
        m.histogram('weird\nname"x"').add(1.0)
        text = render_exposition(metrics=m)
        help_line = next(l for l in text.splitlines()
                         if l.startswith("# HELP"))
        assert "\n" not in help_line
        assert "\\n" in help_line

    def test_parse_rejects_bad_escape(self):
        with pytest.raises(ExpositionError):
            parse_exposition('edc_x{a="b\\q"} 1.0\n')

    def test_parse_rejects_unterminated_value(self):
        with pytest.raises(ExpositionError):
            parse_exposition('edc_x{a="b} 1.0\n')


class TestGoldenFile:
    def test_matches_committed_golden(self):
        metrics, sampler = build_fixture()
        text = render_exposition(metrics=metrics, sampler=sampler)
        with open(GOLDEN, "r", encoding="utf-8") as fp:
            assert text == fp.read()
