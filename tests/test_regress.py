"""Tests for the benchmark regression harness (repro.bench.regress).

Replays are kept to a ~3-virtual-second Fin1 slice so the whole module
stays fast; the committed 60 s baseline is exercised structurally (the
CLI gate against it runs in CI, not here).
"""

import json
import os

import pytest

from repro.bench.__main__ import main
from repro.bench.regress import (
    CANONICAL_TRACES,
    DEFAULT_TOLERANCES,
    GATED_METRICS,
    SCHEMA_VERSION,
    RegressionError,
    compare,
    load_baseline,
    make_baseline,
    next_bench_path,
    run_bench,
)
from repro.bench.verdicts import USAGE_ERROR

DURATION = 3.0


@pytest.fixture(scope="module")
def record():
    return run_bench(traces=["Fin1"], duration=DURATION)


class TestRunBench:
    def test_record_shape(self, record):
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["scheme"] == "EDC"
        assert record["duration_s"] == DURATION
        fin1 = record["traces"]["Fin1"]
        for metric in GATED_METRICS:
            assert metric in fin1
        assert fin1["n_requests"] > 0
        assert fin1["mean_response_s"] > 0
        assert fin1["throughput_iops"] == pytest.approx(
            fin1["n_requests"] / DURATION
        )
        assert fin1["wall_clock_s"] >= 0

    def test_unknown_trace_rejected(self):
        with pytest.raises(ValueError):
            run_bench(traces=["NotATrace"], duration=1.0)


class TestCompare:
    def test_self_baseline_passes(self, record):
        baseline = make_baseline(record)
        assert compare(record, baseline) == []

    def test_tightened_tolerance_names_the_metric(self, record):
        baseline = make_baseline(record)
        baseline["tolerances"]["compression_ratio"] = 1e-12
        baseline["traces"]["Fin1"]["compression_ratio"] *= 1.001
        violations = compare(record, baseline)
        assert len(violations) == 1
        assert violations[0].startswith("Fin1.compression_ratio:")
        assert "tolerance" in violations[0]

    def test_trace_missing_from_baseline_is_violation(self, record):
        baseline = make_baseline(record)
        del baseline["traces"]["Fin1"]
        violations = compare(record, baseline)
        assert violations == ["Fin1: not present in baseline"]

    def test_duration_mismatch_uncomparable(self, record):
        baseline = make_baseline(record)
        baseline["duration_s"] = DURATION * 2
        with pytest.raises(RegressionError):
            compare(record, baseline)

    def test_scheme_mismatch_uncomparable(self, record):
        baseline = make_baseline(record)
        baseline["scheme"] = "Native"
        with pytest.raises(RegressionError):
            compare(record, baseline)


class TestBaselineIO:
    def test_load_rejects_wrong_schema_version(self, tmp_path, record):
        baseline = make_baseline(record)
        baseline["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        with pytest.raises(RegressionError):
            load_baseline(str(path))

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(RegressionError):
            load_baseline(str(path))

    def test_committed_baseline_is_valid(self):
        root = os.path.join(os.path.dirname(__file__), "..")
        doc = load_baseline(os.path.join(root, "benchmarks",
                                         "baseline.json"))
        assert set(doc["traces"]) == set(CANONICAL_TRACES)
        assert set(doc["tolerances"]) == set(DEFAULT_TOLERANCES)
        for vals in doc["traces"].values():
            assert set(vals) == set(GATED_METRICS)


class TestBenchNumbering:
    def test_starts_at_one(self, tmp_path):
        assert next_bench_path(str(tmp_path)).endswith("BENCH_1.json")

    def test_increments_past_highest(self, tmp_path):
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_7.json").write_text("{}")
        (tmp_path / "BENCH_03.json").write_text("{}")  # zero-padded counts
        (tmp_path / "notes.txt").write_text("ignored")
        assert next_bench_path(str(tmp_path)).endswith("BENCH_8.json")


class TestCli:
    def test_gate_pass_and_fail_round_trip(self, tmp_path, record):
        # Pin a baseline from the fixture record, then gate a fresh run
        # against it: deterministic replay -> pass; a tolerance
        # tightened to ~zero with a nudged pin -> exit 1 naming the
        # metric; a different duration -> usage error (uncomparable).
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps(make_baseline(record)))
        out = tmp_path / "out"
        argv = ["regress", "--traces", "Fin1", "--baseline", str(base_path),
                "--out-dir", str(out)]
        assert main(argv) == 0
        rec = json.loads((out / "BENCH_1.json").read_text())
        assert rec["schema_version"] == SCHEMA_VERSION
        assert rec["baseline"]["passed"] is True

        tight = json.loads(base_path.read_text())
        tight["tolerances"]["mean_response_s"] = 1e-12
        tight["traces"]["Fin1"]["mean_response_s"] *= 1.001
        base_path.write_text(json.dumps(tight))
        assert main(argv) == 1
        rec = json.loads((out / "BENCH_2.json").read_text())
        assert rec["baseline"]["passed"] is False
        assert any("Fin1.mean_response_s" in v
                   for v in rec["baseline"]["violations"])

        with pytest.raises(SystemExit) as exc:
            main(argv + ["--duration", str(DURATION * 2)])
        assert exc.value.code == USAGE_ERROR

    def test_missing_baseline_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["regress", "--traces", "Fin1", "--duration", "1",
                  "--baseline", str(tmp_path / "nope.json"),
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == USAGE_ERROR

    def test_ungated_runs_accept_any_duration(self, tmp_path):
        base = tmp_path / "baseline.json"
        argv = ["regress", "--traces", "Fin1", "--baseline", str(base),
                "--out-dir", str(tmp_path)]
        assert main(argv + ["--duration", "1", "--update-baseline"]) == 0
        assert load_baseline(str(base))["duration_s"] == 1.0
        assert main(argv + ["--duration", "2", "--no-gate"]) == 0
        rec = json.loads((tmp_path / "BENCH_2.json").read_text())
        assert rec["duration_s"] == 2.0
        assert rec["baseline"]["gated"] is False
