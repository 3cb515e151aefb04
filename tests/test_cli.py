"""Tests for the ``python -m repro.bench`` CLI runner."""

import ast
import pathlib
import re

import pytest

from repro.bench.__main__ import main
from repro.bench.figures import DURATION, EXHIBITS

REPO = pathlib.Path(__file__).parent.parent

#: the files that write command lines down for a reader to copy
DOCS = [
    "README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/API.md",
    "benchmarks/README.md", ".claude/skills/verify/SKILL.md",
    "benchmarks/test_ledger.py",
    *sorted(str(p.relative_to(REPO)) for p in REPO.glob("examples/*.py")),
]

#: packages whose module docstrings show command lines
DOCSTRING_PACKAGES = ("src/repro/bench", "src/repro/telemetry",
                      "src/repro/faults")

#: ``python -m repro.bench``, a module suffix if any, then the next word
COMMAND_LINE = re.compile(r"python -m repro\.bench(\.\w+)?[\s\\]*([\w-]*)")


def _sub_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    return re.search(r"\{([\w,-]+)\}", usage).group(1).split(",")


def _documented_texts():
    for name in DOCS:
        yield name, (REPO / name).read_text(encoding="utf-8")
    for package in DOCSTRING_PACKAGES:
        for path in sorted((REPO / package).glob("*.py")):
            doc = ast.get_docstring(ast.parse(path.read_text("utf-8")))
            yield str(path.relative_to(REPO)), doc or ""


def test_help_lists_exactly_the_seven_sub_commands(capsys):
    assert _sub_commands(capsys) == [
        "exhibit", "breakdown", "chaos", "crash", "cluster", "regress",
        "diff",
    ]


def test_documented_command_lines_name_a_sub_command(capsys):
    known = set(_sub_commands(capsys))
    bad = [
        f"{name}: {m.group(0)!r}"
        for name, text in _documented_texts()
        for m in COMMAND_LINE.finditer(text)
        if m.group(1) or m.group(2) not in known
    ]
    assert not bad, "command lines naming no sub-command:\n" + "\n".join(bad)


class TestCli:
    def test_fig1_and_tables(self, capsys):
        assert main(["exhibit", "fig1", "table1", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Fig 1" in out
        assert "Table I" in out
        assert "Table II" in out
        assert "Fin1" in out

    def test_fig3(self, capsys):
        assert main(["exhibit", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out
        assert "peak" in out

    def test_prints_each_exhibits_render(self, capsys):
        names = ["fig1", "table1", "fig3"]
        assert main(["exhibit", *names]) == 0
        out = capsys.readouterr().out
        renders = "".join(
            EXHIBITS[name][1](EXHIBITS[name][0](DURATION)) + "\n\n"
            for name in names
        )
        assert out.startswith(renders)
        assert out[len(renders):].startswith("done in ")

    def test_unknown_exhibit_errors(self):
        with pytest.raises(SystemExit):
            main(["exhibit", "fig99"])

    def test_duration_flag_parsed(self, capsys):
        assert main(["exhibit", "table1", "--duration", "5"]) == 0

    def test_fig12_short(self, capsys):
        assert main(["exhibit", "fig12", "--duration", "8"]) == 0
        out = capsys.readouterr().out
        assert "Fig 12: sensitivity to the Gzip threshold (Fin2)" in out
        assert "Fig 12: sensitivity to the Gzip threshold (Fin1)" in out
        assert "gzip share" in out

    def test_metrics_flag_renders_dashboard(self, capsys, tmp_path):
        series = tmp_path / "ts.jsonl"
        prom = tmp_path / "m.prom"
        assert main(["breakdown", "--metrics", "--duration", "4",
                     "--series-dump", str(series),
                     "--prom-dump", str(prom)]) == 0
        out = capsys.readouterr().out
        assert "time-series dashboard" in out
        assert "policy.band" in out
        assert "markers[band_switch]" in out
        assert series.read_text().strip()
        assert prom.read_text().startswith("# HELP")

    def test_telemetry_prom_dump_holds_distributions_only(self, capsys, tmp_path):
        # Telemetry keeps no counter or gauge of its own: without the
        # sampler, its scrape is the latency and GC histograms alone.
        prom = tmp_path / "m.prom"
        assert main(["breakdown", "--telemetry", "--duration", "3",
                     "--prom-dump", str(prom)]) == 0
        types = [line.split() for line in prom.read_text().splitlines()
                 if line.startswith("# TYPE")]
        assert types
        assert {t[3] for t in types} == {"histogram"}
        assert "Counters and gauges" not in capsys.readouterr().out

    def test_telemetry_and_metrics_compose(self, capsys):
        # one shared replay produces both reports
        assert main(["breakdown", "--telemetry", "--metrics",
                     "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "telemetry+metrics" in out
        assert "Per-layer latency breakdown" in out
        assert "time-series dashboard" in out

    def test_audit_flag_prints_regret_table(self, capsys, tmp_path):
        dump = tmp_path / "audit.jsonl"
        assert main(["breakdown", "--audit", "--shadow", "lzf,gzip",
                     "--audit-dump", str(dump), "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "decision audit:" in out
        assert "per-band regret" in out
        assert "Lzf MB" in out and "Gzip MB" in out
        assert "EDC vs best-static" in out
        # the dump is valid JSONL the diff tool accepts (self-diff = 0)
        import json

        lines = dump.read_text().strip().splitlines()
        assert lines and all(json.loads(l) for l in lines)
        assert main(["diff", str(dump), str(dump)]) == 0

    def test_audit_composes_with_telemetry_and_metrics(self, capsys):
        # one shared replay produces all three reports
        assert main(["breakdown", "--audit", "--telemetry", "--metrics",
                     "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "telemetry+metrics+audit" in out
        assert "Per-layer latency breakdown" in out
        assert "time-series dashboard" in out
        assert "per-band regret" in out
        # the audit vocabulary shows up in the sampled series too
        assert "audit.decisions" in out
