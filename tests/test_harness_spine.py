"""The harness spine: one stack builder, one RunRecord, one CLI emit path.

(a) every assembly of the testbed (``replay`` on an SSD and on RAIS5, a
crash episode, a fleet shard) arms the same fault-plan machinery and
folds a trace onto the same addresses; (b) the record every graded run
returns round-trips through JSON and derives its exit status from its
verdict; (c) the graded CI commands print, at test sizes, exactly what
they printed before the renderers became functions of the record, and
usage errors never borrow a verdict's exit status.
"""

import json
import pathlib

import pytest

from repro.bench import chaos, cluster, crash, experiments, regress, verdicts
from repro.bench.__main__ import main
from repro.bench.experiments import ReplayConfig, replay
from repro.bench.record import RECORD_SCHEMA, RunRecord
from repro.cluster import (
    ClusterReplayConfig,
    ClusterReplayer,
    DurabilityReport,
    TenantSpec,
    build_cluster,
)
from repro.faults import FaultPlan, LatentErrorModel, PowerLoss
from repro.flash.introspect import ssds_served
from repro.traces.workloads import make_workload

REPO = pathlib.Path(__file__).parent.parent
GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_stdout"

#: injector probabilities + retention: everything ``FaultPlan.arm`` installs
PLAN = FaultPlan(
    seed=3, read_fault_prob=0.01, program_fault_prob=0.001,
    retention={"rate_per_s": 0.01, "check_interval_s": 0.05},
)


# ----------------------------------------------------------------------
# (a) stack parity
# ----------------------------------------------------------------------
def _armed(ssds):
    """Every SSD carries the plan's injector, latent model and the
    allocator's retirement subscription."""
    assert ssds
    for ssd in ssds:
        assert ssd.injector is not None and ssd.injector.name == ssd.name
        assert isinstance(ssd.latent, LatentErrorModel)
        assert ssd.latent.tick_event is not None
        assert ssd.ftl.events.subs.get("retire")
    return True


class TestStackParity:
    TRACE = make_workload("Fin1", max_requests=60)

    def _replayed(self, backend):
        built = {}

        def on_built(sim, device, built_backend, devices):
            built["backend"] = built_backend
            built["ssds"] = devices if devices is not None else [built_backend]
            built["lbas"] = lbas = []
            device.events.subscribe(
                "request", lambda req: lbas.append((req.lba, req.nbytes))
            )

        replay(self.TRACE, "EDC", ReplayConfig(backend=backend),
               fault_plan=PLAN, on_built=on_built)
        return built

    @pytest.mark.parametrize("backend,members", [("ssd", 1), ("rais5", 5)])
    def test_replay_arms_every_member(self, backend, members):
        built = self._replayed(backend)
        assert len(built["ssds"]) == members and _armed(built["ssds"])
        served = ssds_served(built["backend"])
        assert [s.injector for s in served] == [
            s.injector for s in built["ssds"]
        ]
        assert [s.latent for s in served] == [
            s.latent for s in built["ssds"]
        ]

    def test_crash_episode_arms_its_ssd(self, monkeypatch):
        stacks = []
        real = crash.build_stack

        def spy(*args, **kwargs):
            stacks.append(real(*args, **kwargs))
            return stacks[-1]

        monkeypatch.setattr(crash, "build_stack", spy)
        plan = PLAN.with_overrides(power_losses=(PowerLoss(at=0.5),))
        crash.run_crash_chaos(plan, duration=1.0)
        assert len(stacks) == 2  # the cut episode and the tail
        for stack in stacks:
            assert stack.devices is None and _armed(stack.members)

    def test_fleet_shard_arms_like_a_single_device_and_folds_alike(self):
        fleet = build_cluster(
            [TenantSpec("only")],
            ClusterReplayConfig(n_shards=1, fault_plan=PLAN),
        )
        ssd = fleet.backends["shard0"]
        assert _armed([ssd])
        served = ssds_served(ssd)
        assert [s.injector for s in served] == [ssd.injector] == fleet.injectors
        assert [s.latent for s in served] == [ssd.latent]
        lbas = []
        fleet.devices["shard0"].events.subscribe(
            "request", lambda req: lbas.append((req.lba, req.nbytes))
        )
        replayer = ClusterReplayer(fleet)
        replayer.schedule("only", self.TRACE)
        replayer.run()
        assert lbas == self._replayed("ssd")["lbas"]

    def test_fleet_latent_plan_arms_every_shard(self):
        # The committed latent plan used to arm nothing on a fleet.
        plan = FaultPlan.from_json(str(REPO / "benchmarks/latent_fin1.json"))
        fleet = build_cluster(
            [TenantSpec("t")],
            ClusterReplayConfig(
                n_shards=2, replication_factor=2, fault_plan=plan
            ),
        )
        assert _armed(fleet.backends.values())
        for ssd in fleet.backends.values():
            served = ssds_served(ssd)
            assert [s.injector for s in served] == [ssd.injector]
            assert [s.latent for s in served] == [ssd.latent]

    def test_fleet_failure_naming_no_shard_raises(self):
        plan = FaultPlan(device_failures=[{"at": 1.0, "device": "shard9"}])
        with pytest.raises(ValueError, match="unknown device 'shard9'"):
            build_cluster(
                [TenantSpec("t")],
                ClusterReplayConfig(n_shards=2, fault_plan=plan),
            )


# ----------------------------------------------------------------------
# (b) record contract
# ----------------------------------------------------------------------
def _chaos_record():
    return chaos.run_chaos(PLAN, duration=1.5, scrub_interval=0.01)


def _crash_record():
    return crash.run_crash_chaos(
        FaultPlan(seed=11, power_losses=(PowerLoss(at=1.0),)), duration=2.0
    )


def _cluster_record():
    return cluster.run_cluster(
        n_shards=2, n_tenants=2, max_requests=60, capacity_mb=32, trace=True
    )


class TestRecordContract:
    @pytest.mark.parametrize("run,module", [
        (_chaos_record, chaos), (_crash_record, crash),
        (_cluster_record, cluster),
    ])
    def test_round_trip_render_and_exit_code(self, run, module):
        r = run()
        assert r.kind == module.__name__.rsplit(".", 1)[1]
        back = RunRecord.from_json(r.to_json())
        assert back == r
        assert not back.live
        assert module.render(back) == module.render(r)
        assert r.exit_code == verdicts.exit_code(r.verdict)
        assert r.ok == (r.verdict == verdicts.RECOVERED)
        doc = json.loads(r.to_json())
        assert doc["schema"] == RECORD_SCHEMA
        assert doc["exit_code"] == r.exit_code

    def test_unknown_schema_and_verdict_rejected(self):
        doc = json.loads(
            RunRecord("crash", {}, {}, {}, verdicts.RECOVERED).to_json()
        )
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_json(json.dumps({**doc, "schema": 99}))
        with pytest.raises(ValueError, match="unknown verdict"):
            RunRecord.from_json(json.dumps({**doc, "verdict": "FINE"}))

    def test_evidence_must_be_serialisable(self):
        with pytest.raises(TypeError):
            RunRecord("chaos", {}, {"device": object()}, {}, verdicts.RECOVERED)

    def test_corrupt_surviving_copy_grades_corruption(self):
        d = DurabilityReport(corrupt=[1], lost=[2], under_replicated=[0])
        assert d.verdict == verdicts.CORRUPTION
        assert verdicts.exit_code(d.verdict) == 3
        assert DurabilityReport(lost=[2]).verdict == verdicts.DATA_LOSS
        assert DurabilityReport(rebuilds_pending=1).verdict == verdicts.DEGRADED
        assert DurabilityReport().verdict == verdicts.RECOVERED


# ----------------------------------------------------------------------
# (c) the CLI: stdout recorded at the parent commit, exit statuses
# ----------------------------------------------------------------------
#: the graded CI commands (.github/workflows/ci.yml) at test sizes:
#: name -> (argv, exit status); ``<TMP>`` is the test's scratch directory.
#: Lines have been re-recorded since: ``chaos.txt``'s "bad blocks"
#: count went 8 -> 9 (and its bytes with it) when the spare a rebuild swaps
#: in took over the failed member's subscribers; its retirement was
#: unheard.  ``scrub_on.txt``'s scrub line lost " / 0 replica repairs"
#: when the fleet replica-repair hook, which no fleet wired, was deleted,
#: and its "extents corrupted" went 275 -> 272 when RAIS5 began trimming
#: exactly the pieces it placed: three latent strikes had landed on
#: member pieces that no live entry owned.  ``traced.txt``'s critical
#: path gained an ``sd_hold`` row, split out of ``queue``, when the SD
#: hold became its own layer.
CI_COMMANDS = {
    "chaos": (
        "chaos benchmarks/chaos_fin1.json --trace Fin1 --backend rais5 "
        "--duration 6 --prom-dump <TMP>/chaos-metrics.prom", 0),
    "scrub_on": (
        "chaos benchmarks/latent_fin1.json --trace Fin1 --backend rais5 "
        "--duration 3 --scrub-interval 0.005", 0),
    "scrub_off": (
        "chaos benchmarks/latent_fin1.json --trace Fin1 --backend rais5 "
        "--duration 3", 3),
    "crash": (
        "crash benchmarks/crash_fin1.json --trace Fin1 --duration 6", 0),
    "cluster": (
        "cluster --shards 2 --tenants 4 --requests 120 "
        "--prom-dump <TMP>/cluster-metrics.prom", 0),
    "cluster_chaos": (
        "cluster --shards 3 --tenants 3 --requests 400 "
        "--chaos benchmarks/cluster_chaos.json --replication 2", 0),
    "traced": (
        "cluster --trace --shards 3 --tenants 6 --requests 100 "
        "--trace-dump <TMP>/cluster-trace.json --alerts", 0),
}


def _cli(command, tmp_path, capsys):
    code = main(command.replace("<TMP>", str(tmp_path)).split())
    return code, capsys.readouterr().out.replace(str(tmp_path), "<TMP>")


@pytest.mark.parametrize("name", sorted(CI_COMMANDS))
def test_ci_command_stdout_is_what_the_parent_printed(
    name, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(REPO)
    command, status = CI_COMMANDS[name]
    code, out = _cli(command, tmp_path, capsys)
    assert code == status
    assert out == (GOLDEN / f"{name}.txt").read_text()


class TestExitStatus:
    def test_record_flag_writes_the_record_and_agrees_with_the_exit(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(REPO)
        path = tmp_path / "run.json"
        code, out = _cli(
            f"chaos benchmarks/chaos_fin1.json --duration 2 --record {path}",
            tmp_path, capsys,
        )
        record = RunRecord.from_json(path.read_text())
        assert code == record.exit_code
        assert record.kind == "chaos"
        assert record.sections["faults"]["read_faults"] > 0
        assert chaos.render(record) in out
        assert out.endswith("\nwrote the run record to <TMP>/run.json\n")

    @pytest.mark.parametrize("command", [
        # the command lines of the one namespace before the sub-commands
        "--chaos benchmarks/chaos_fin1.json",
        "fig1",
        "",
        "exhibit fig99",
        "exhibit --record <TMP>/r.json fig1",
        "breakdown --audit --shadow nosuch",
        "breakdown --trace-dump <TMP>/no/such/dir/s.jsonl",
        "chaos <TMP>/missing.json",
        "chaos <TMP>/bogus.json",
        "chaos benchmarks/crash_fin1.json",
        "chaos benchmarks/chaos_fin1.json --trace NoSuchTrace",
        "crash benchmarks/chaos_fin1.json",
        "crash benchmarks/crash_fin1.json --backend rais5",
        "cluster --prom-dump <TMP>/no/such/dir/x.prom",
        "cluster --chaos benchmarks/crash_fin1.json",
        "cluster --health-dump <TMP>/h.json",
        "regress --baseline <TMP>/missing.json",
        "regress --baseline <TMP>/bogus.json",
        "regress --baseline <TMP>/torn.json",
        "regress --traces Fin1 NoSuchTrace",
        "regress --duration 7",
        "regress --scheme Native",
        "diff --no-such-flag <TMP>/a.jsonl <TMP>/a.jsonl",
        "diff <TMP>/missing.jsonl <TMP>/missing.jsonl",
        "diff <TMP>/bogus.json <TMP>/bogus.json",
        # numbers no run can honour
        "chaos benchmarks/chaos_fin1.json --duration nan",
        "chaos benchmarks/chaos_fin1.json --duration -1",
        "chaos benchmarks/chaos_fin1.json --duration inf",
        "chaos benchmarks/latent_fin1.json --scrub-interval nan",
        "chaos benchmarks/latent_fin1.json --scrub-interval 0",
        "crash benchmarks/crash_fin1.json --duration nan",
        "crash benchmarks/crash_fin1.json --duration inf",
        "exhibit fig1 --duration nan",
        "breakdown --duration -3",
        "cluster --tenants 0",
        "cluster --shards 0",
        "cluster --replication 0",
        "cluster --requests 0",
        "regress --no-gate --duration nan",
        "regress --no-gate --duration -1",
    ])
    def test_usage_errors_never_run_and_never_look_like_a_verdict(
        self, command, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(REPO)
        (tmp_path / "bogus.json").write_text('{"no_such_key": 1}')
        (tmp_path / "torn.json").write_text('{"schema_version": 1,')

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        for module, runner in ((chaos, "run_chaos"), (cluster, "run_cluster"),
                               (crash, "run_crash_chaos"),
                               (experiments, "replay"),
                               (regress, "run_bench")):
            monkeypatch.setattr(module, runner, no_run)
        with pytest.raises(SystemExit) as exc:
            main(command.replace("<TMP>", str(tmp_path)).split())
        assert exc.value.code == verdicts.USAGE_ERROR
        assert exc.value.code not in verdicts.EXIT_CODES.values()
        assert "error:" in capsys.readouterr().err

    def test_error_raised_by_the_run_is_not_a_usage_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(REPO)

        def broken(*args, **kwargs):
            raise ValueError("mid-run")

        monkeypatch.setattr(chaos, "run_chaos", broken)
        with pytest.raises(ValueError, match="mid-run"):
            main("chaos benchmarks/chaos_fin1.json".split())
