"""BENCHMARK.json against the builder's contract and against the command."""

import json
import os
import re
import subprocess
import sys

import pytest

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


def test_file_has_exactly_the_contract_keys(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/perf"]
    assert contract["command"] == ["python3", "benchmarks/perf/run.py"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert os.path.getsize(os.path.join(run.ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_names_units_and_counts_are_within_limits(contract):
    workloads, e2e, layers = (contract[k] for k in ("workloads", "end_to_end", "per_layer"))
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [x["name"] for x in workloads + e2e + layers]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in workloads:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layers:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in e2e)


def test_workload_sizes_in_the_contract_match_the_code(contract):
    from workloads import N_TENANTS, SIZES, WORKLOAD_FUNCS

    assert [w["name"] for w in contract["workloads"]] == list(WORKLOAD_FUNCS) == list(SIZES)
    why = {w["name"]: w["why"] for w in contract["workloads"]}
    for workload, sizes in SIZES.items():
        for n in sizes.values():
            assert str(n) in why[workload], (workload, n)
    assert f"{N_TENANTS} tenants" in why["fleet-rf2"]


def test_every_layer_has_its_three_span_metrics(contract):
    names = {m["name"] for m in contract["per_layer"]}
    for layer in run.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls", f"{layer}.share"} <= names


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_contract_name_and_no_other(contract, trace, section):
    """The driver's call, at smoke size: last line is the contract's JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "native-gc",
         "--seed", "3", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in contract[section]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # the readable report names every metric with its unit as well
    report = "\n".join(lines[:-1])
    for name, unit in wanted.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}", report, re.M), name
    if trace:
        assert "check stamps_only_dispatch     ok" in report
        assert os.path.exists(os.path.join(run.OUT_DIR, "native-gc.spans.jsonl"))


def _record(tmp_path, name, req_per_s, raw, p99=2.0, seed=42):
    metrics = {
        "replay_req_per_s": req_per_s, "setup_s": 1.0, "peak_rss_mb": 50.0,
        "sim_mean_response_ms": 0.5, "sim_p99_response_ms": p99,
        "flash_bytes_per_host_byte": 1.5,
    }
    record = {
        "env": {"seed": seed, "scale": 1.0},
        "workloads": {"native-gc": {
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
            "raw_req_per_s": raw, "raw_setup_s": [1.0, 1.01],
        }},
    }
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def test_compare_applies_the_bounds(contract, tmp_path, capsys):
    bound = {m["name"]: m["bound"] for m in contract["end_to_end"]}["replay_req_per_s"]
    base = _record(tmp_path, "a.json", 1000.0, [990.0, 1000.0])
    beyond = 1000.0 * (1 - bound - 0.02)
    slower = _record(tmp_path, "b.json", beyond, [beyond - 10.0, beyond])
    assert run.compare(base, slower, contract) == 1
    assert f"{-bound - 0.02:+.2%}  worse" in capsys.readouterr().out
    # within the bound and steady: the same
    close = _record(tmp_path, "c.json", 960.0, [950.0, 960.0])
    assert run.compare(base, close, contract) == 0
    assert "-4.00%  same" in capsys.readouterr().out
    # within the bound but the repeats spread wider than it: unresolved
    shaky = _record(tmp_path, "d.json", 960.0, [600.0, 960.0])
    assert run.compare(base, shaky, contract) == 0
    assert "unresolved" in capsys.readouterr().out
    # faster is never worse
    faster = _record(tmp_path, "e.json", 2000.0, [1990.0, 2000.0])
    assert run.compare(base, faster, contract) == 0


def test_compare_holds_simulated_metrics_exact_on_equal_inputs(contract, tmp_path, capsys):
    base = _record(tmp_path, "a.json", 1000.0, [990.0, 1000.0])
    drifted = _record(tmp_path, "b.json", 1000.0, [990.0, 1000.0], p99=2.0002)
    assert run.compare(base, drifted, contract) == 1
    assert "worse" in capsys.readouterr().out
    # another seed is another input: only the bound applies
    other = _record(tmp_path, "c.json", 1000.0, [990.0, 1000.0], p99=2.0002, seed=7)
    assert run.compare(base, other, contract) == 0
