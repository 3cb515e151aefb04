"""Tests for the decision-audit trail, shadow policies and run diff.

The two headline invariants:

* auditing is side-effect-free — an audited replay produces the exact
  same :class:`ExperimentResult` as an unaudited one;
* an identical shadow (default-band EDC shadowing a default-band EDC
  device) never diverges and accounts byte-exact equal stored bytes.
"""

import io
import json

import pytest

from repro.bench.diff import (
    AuditDiffError,
    AuditDump,
    diff_dumps,
    render_diff,
)
from repro.bench.__main__ import main
from repro.bench.experiments import ReplayConfig, replay
from repro.bench.report import render_audit
from repro.bench.verdicts import USAGE_ERROR
from repro.telemetry import (
    AUDIT_SCHEMA_VERSION,
    DecisionAuditor,
    Telemetry,
    dump_audit_jsonl,
    parse_shadow_spec,
    shadow_policy,
)
from repro.telemetry.audit import RESERVOIR_CAPACITY
from repro.core.policy import ElasticPolicy, FixedPolicy, NativePolicy
from repro.sim.engine import Simulator
from repro.traces.workloads import make_workload

CFG = ReplayConfig(capacity_mb=32, pool_blocks=32)


def _trace(max_requests=500, seed=7):
    return make_workload("Fin1", duration=None,
                         max_requests=max_requests, seed=seed)


@pytest.fixture(scope="module")
def audited_replay():
    auditor = DecisionAuditor(
        shadows=parse_shadow_spec("lzf,gzip,native,edc")
    )
    result = replay(_trace(), "EDC", CFG,
                    telemetry=Telemetry(Simulator()), auditor=auditor)
    return auditor, result


class TestShadowSpec:
    def test_parse_shadow_spec(self):
        policies = parse_shadow_spec("lzf,gzip,native,edc")
        assert isinstance(policies[0], FixedPolicy)
        assert isinstance(policies[2], NativePolicy)
        assert isinstance(policies[3], ElasticPolicy)
        assert parse_shadow_spec("") == []

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            shadow_policy("zstd")

    def test_duplicate_names_dedup(self):
        auditor = DecisionAuditor(
            shadows=[FixedPolicy("lzf"), FixedPolicy("lzf")]
        )
        names = auditor.shadow_names
        assert len(names) == 2
        assert len(set(names)) == 2


class TestInvariants:
    def test_identical_shadow_never_diverges(self, audited_replay):
        auditor, _ = audited_replay
        assert auditor.n_decisions > 0
        edc = auditor.shadow_grand_totals()["EDC"]
        assert edc.divergences == 0
        live = auditor.totals()
        # byte-exact equal counterfactual accounting
        assert edc.stored_bytes == live.stored_bytes
        assert edc.payload_bytes == live.payload_bytes
        assert auditor.divergence_shares()["EDC"] == 0.0

    def test_native_shadow_always_diverges_when_live_compresses(
        self, audited_replay
    ):
        auditor, _ = audited_replay
        native = auditor.shadow_grand_totals()["Native"]
        compressing = sum(
            n for (_, codec), n in auditor.selections.items()
            if codec != "raw"
        )
        assert native.divergences >= compressing


class TestAggregates:
    def test_band_totals_cover_all_decisions(self, audited_replay):
        auditor, _ = audited_replay
        assert sum(bt.n for bt in auditor.band_totals.values()) == (
            auditor.n_decisions
        )
        assert sum(auditor.selections.values()) == auditor.n_decisions

    def test_reservoir_is_bounded(self):
        auditor = DecisionAuditor()
        replay(_trace(max_requests=3500), "EDC", CFG, auditor=auditor)
        assert auditor.n_decisions > RESERVOIR_CAPACITY
        assert len(auditor.events) == RESERVOIR_CAPACITY

    def test_single_device_binding(self, audited_replay):
        auditor, _ = audited_replay
        with pytest.raises(RuntimeError):
            auditor.bind_device(object())

    def test_regret_summary(self, audited_replay):
        auditor, _ = audited_replay
        summary = auditor.regret_summary()
        assert summary["best_space_shadow"] in auditor.shadow_names
        assert summary["best_cpu_shadow"] in auditor.shadow_names
        # an EDC clone among the shadows bounds both regrets at <= 0
        assert summary["space_regret_bytes"] <= 0 or (
            summary["best_space_shadow"] != "EDC"
        )

    def test_event_shape(self, audited_replay):
        auditor, _ = audited_replay
        ev = auditor.events[0]
        for key in ("t", "lba", "nbytes", "iops", "band", "selected",
                    "stored", "cpu_time", "shadows"):
            assert key in ev
        assert not any(k.startswith("_") for k in ev)
        for s in ev["shadows"].values():
            assert set(s) >= {"selected", "stored", "cpu_time", "diverged"}


class TestRendering:
    def test_render_audit_regret_table(self, audited_replay):
        auditor, _ = audited_replay
        text = render_audit(auditor)
        assert "per-band regret" in text
        assert "EDC vs best-static" in text
        for name in auditor.shadow_names:
            assert f"{name} MB" in text

    def test_render_audit_empty(self):
        text = render_audit(DecisionAuditor())
        assert "no write decisions" in text


class TestDumpAndDiff:
    def test_dump_valid_jsonl(self, audited_replay, tmp_path):
        auditor, _ = audited_replay
        fp = io.StringIO()
        n = dump_audit_jsonl(auditor, fp)
        lines = fp.getvalue().strip().splitlines()
        assert len(lines) == n
        kinds = set()
        for line in lines:
            obj = json.loads(line)
            kinds.add(obj["kind"])
        assert kinds >= {"meta", "band", "selection", "shadow", "event"}
        meta = json.loads(lines[0])
        assert meta["kind"] == "meta"
        assert meta["version"] == AUDIT_SCHEMA_VERSION

    def test_self_diff_passes(self, audited_replay, tmp_path):
        auditor, _ = audited_replay
        path = tmp_path / "a.jsonl"
        with open(path, "w") as fp:
            dump_audit_jsonl(auditor, fp)
        assert main(["diff", str(path), str(path)]) == 0

    def test_diff_detects_shift(self, tmp_path, capsys):
        # swap the loaded band's codec so the decision mix flips
        from repro.core.policy import IntensityBand

        trace = _trace(max_requests=400)
        paths = []
        for i, bands in enumerate((
            None,
            [IntensityBand(250.0, "gzip"), IntensityBand(3000.0, "gzip"),
             IntensityBand(float("inf"), None)],
        )):
            auditor = DecisionAuditor(shadows=parse_shadow_spec("lzf"))
            replay(trace, "EDC", CFG, bands=bands, auditor=auditor,
                   telemetry=Telemetry(Simulator()))
            path = tmp_path / f"run{i}.jsonl"
            with open(path, "w") as fp:
                dump_audit_jsonl(auditor, fp)
            paths.append(str(path))
        assert main(["diff", *paths]) == 1
        out = capsys.readouterr().out
        assert "shift" in out

    def test_diff_exit_2_on_unreadable(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        with pytest.raises(SystemExit) as exc:
            main(["diff", missing, missing])
        assert exc.value.code == USAGE_ERROR

    def test_diff_exit_2_on_malformed(self, tmp_path, capsys):
        meta = json.dumps({"kind": "meta", "version": AUDIT_SCHEMA_VERSION,
                           "policy": "EDC", "n_decisions": 1})
        # each dump's last line is the malformed one
        dumps = [
            ['{"kind": "band"}'],
            # a selection with no codec
            [meta, '{"kind": "selection", "band": 0, "n": 1}'],
            # a band with no n
            [meta, '{"kind": "band", "band": 0, "logical_bytes": 1, '
                   '"stored_bytes": 1, "response_seconds": 0.0, '
                   '"responses": 0}'],
            # a line that is a JSON array
            [meta, "[1, 2]"],
        ]
        bad = tmp_path / "bad.jsonl"
        for lines in dumps:
            bad.write_text("\n".join(lines) + "\n")
            with pytest.raises(SystemExit) as exc:
                main(["diff", str(bad), str(bad)])
            assert exc.value.code == USAGE_ERROR, lines
            assert f"{bad}:{len(lines)}:" in capsys.readouterr().err

    def test_dump_loads_back(self, audited_replay, tmp_path):
        auditor, _ = audited_replay
        path = tmp_path / "a.jsonl"
        with open(path, "w") as fp:
            dump_audit_jsonl(auditor, fp)
        dump = AuditDump.load(str(path))
        assert dump.meta["n_decisions"] == auditor.n_decisions
        dist = dump.selection_distribution()
        assert dist
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_diff_policy_mismatch_raises(self, audited_replay, tmp_path):
        auditor, _ = audited_replay
        path = tmp_path / "a.jsonl"
        with open(path, "w") as fp:
            dump_audit_jsonl(auditor, fp)
        a = AuditDump.load(str(path))
        b = AuditDump.load(str(path))
        b.meta = dict(b.meta, policy="Lzf")
        with pytest.raises(AuditDiffError):
            diff_dumps(a, b)

    def test_render_diff_table(self, audited_replay, tmp_path):
        auditor, _ = audited_replay
        path = tmp_path / "a.jsonl"
        with open(path, "w") as fp:
            dump_audit_jsonl(auditor, fp)
        a = AuditDump.load(str(path))
        result = diff_dumps(a, a)
        text = render_diff(a, a, result)
        assert "audit diff" in text
        assert "no significant policy shift" in text
