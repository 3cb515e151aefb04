"""Tests for the online media scrubber and self-healing repair.

The headline contract (the chaos harness's acceptance bar): a latent
fault plan replayed with the scrubber armed repairs every corrupted
extent before the host reads it — verdict RECOVERED, zero host-path
``IntegrityError`` — while the identical plan with scrub disabled
verdicts CORRUPTION.  Also locks: config validation, unified verdict
exit codes, repair I/O charged into the device's WA split, the
unrepairable escalation on redundancy-free backends, the retirement
capacity guard, and the fleet replica-repair hook.
"""

import json
import pathlib

import pytest

from repro.bench import verdicts
from repro.bench.chaos import render, run_chaos
from repro.faults import FaultPlan
from repro.flash.scrub import MediaScrubber, ScrubConfig, ScrubStats

PLAN_PATH = pathlib.Path(__file__).parent.parent / "benchmarks" / "latent_fin1.json"


def committed_plan():
    return FaultPlan.from_json(str(PLAN_PATH))


# ----------------------------------------------------------------------
# unified verdict vocabulary (satellite)
# ----------------------------------------------------------------------
class TestVerdicts:
    def test_exit_code_mapping(self):
        assert verdicts.EXIT_CODES == {
            verdicts.RECOVERED: 0,
            verdicts.DEGRADED: 1,
            verdicts.DATA_LOSS: 2,
            verdicts.CORRUPTION: 3,
        }
        assert verdicts.DATA_LOSS == "DATA-LOSS"

    def test_severity_orders_verdicts(self):
        ordered = sorted(verdicts.VERDICTS, key=verdicts.severity)
        assert ordered == [
            verdicts.RECOVERED, verdicts.DEGRADED,
            verdicts.DATA_LOSS, verdicts.CORRUPTION,
        ]

    def test_worst(self):
        assert verdicts.worst(
            verdicts.RECOVERED, verdicts.DEGRADED
        ) == verdicts.DEGRADED
        assert verdicts.worst(verdicts.CORRUPTION) == verdicts.CORRUPTION
        assert verdicts.worst() == verdicts.RECOVERED

    def test_unknown_verdict_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            verdicts.exit_code("FINE")

    def test_grade_picks_the_most_severe_class(self):
        assert verdicts.grade() == verdicts.RECOVERED
        assert verdicts.grade(degraded=1) == verdicts.DEGRADED
        assert verdicts.grade(data_loss=[7], degraded=True) == verdicts.DATA_LOSS
        assert verdicts.grade(
            corruption=1, data_loss=1, degraded=1
        ) == verdicts.CORRUPTION


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
class TestScrubConfig:
    def test_defaults_valid(self):
        ScrubConfig()

    @pytest.mark.parametrize("kw", [
        {"interval_s": 0.0},
        {"interval_s": -1.0},
        {"max_outstanding": -1},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            ScrubConfig(**kw)

    def test_stats_fields_complete(self):
        assert set(ScrubStats().as_dict()) == set(ScrubStats.FIELDS)


# ----------------------------------------------------------------------
# the headline: scrub on repairs, scrub off corrupts
# ----------------------------------------------------------------------
class TestSelfHealing:
    @pytest.fixture(scope="class")
    def reports(self):
        plan = committed_plan()
        on = run_chaos(plan, duration=5.0, scrub_interval=0.005)
        off = run_chaos(plan, duration=5.0)
        return on, off

    def test_scrub_on_recovers(self, reports):
        on, _ = reports
        assert on.verdict == verdicts.RECOVERED
        assert on.exit_code == 0
        assert on.results["corrupt_reads"] == 0     # host never saw corrupt media
        assert on.results["residual_corrupt"] == 0  # media clean at end of run
        stats = on.sections["scrub"]["stats"]
        assert stats["corrupt_found"] > 0
        assert stats["parity_repairs"] > 0
        assert stats["unrepairable"] == 0
        assert stats["repaired_bytes"] > 0

    def test_scrub_off_corrupts(self, reports):
        _, off = reports
        assert off.verdict == verdicts.CORRUPTION
        assert off.exit_code == 3
        assert off.results["residual_corrupt"] > 0
        assert "scrub" not in off.sections

    def test_scrub_io_is_charged(self, reports):
        on, off = reports
        stats = on.sections["scrub"]["stats"]
        # Verify reads and survivor reconstruction reads hit the queues:
        # the scrubbed run is visibly slower than the idle baseline.
        assert stats["verify_bytes"] > 0
        assert stats["repair_read_bytes"] > 0
        assert on.results["mean_response_s"] > off.results["mean_response_s"]

    def test_record_serialises_the_scrub_audit(self, reports):
        on, _ = reports
        blob = json.loads(on.to_json())
        assert blob["verdict"] == verdicts.RECOVERED
        assert blob["exit_code"] == 0
        assert blob["sections"]["scrub"]["stats"]["parity_repairs"] > 0
        assert blob["sections"]["latent"]["corrupted_extents"] > 0

    def test_render_mentions_scrub_and_latent(self, reports):
        on, off = reports
        text = render(on)
        assert "scrub:" in text
        assert "latent:" in text
        assert verdicts.RECOVERED in text
        assert verdicts.CORRUPTION in render(off)

    def test_scrub_runs_are_deterministic(self, reports):
        on, _ = reports
        again = run_chaos(committed_plan(), duration=5.0, scrub_interval=0.005)
        assert again == on


# ----------------------------------------------------------------------
# escalation: no redundancy -> unrepairable -> CORRUPTION accounting
# ----------------------------------------------------------------------
class TestEscalation:
    def test_single_ssd_without_replica_is_unrepairable(self):
        plan = FaultPlan(
            seed=5,
            retention={
                "rate_per_s": 0.5, "age_factor": 1.0, "check_interval_s": 0.02,
            },
        )
        rep = run_chaos(plan, backend="ssd", duration=2.0, scrub_interval=0.005)
        assert rep.sections["scrub"]["stats"]["unrepairable"] > 0
        assert rep.sections["scrub"]["stats"]["parity_repairs"] == 0
        assert rep.verdict == verdicts.CORRUPTION
        assert rep.exit_code == 3

    def test_hot_plan_retires_blocks_without_filling_device(self):
        plan = FaultPlan(
            seed=9,
            retention={
                "rate_per_s": 2.0, "age_factor": 1.0, "check_interval_s": 0.02,
            },
        )
        # The capacity guard must keep mass retirement from shrinking
        # the address space below the live footprint (DeviceFullError).
        rep = run_chaos(plan, duration=3.0, scrub_interval=0.005)
        assert rep.sections["scrub"]["stats"]["blocks_retired"] > 0
        assert rep.results["n_requests"] > 0


# ----------------------------------------------------------------------
# scrubber unit mechanics
# ----------------------------------------------------------------------
class _FakeDevice:
    """Just enough device for constructing a MediaScrubber."""

    class _Backend:
        devices = ()

        @staticmethod
        def latent_corrupt(key):
            return False

    class _Mapping:
        @staticmethod
        def entry_ids():
            return []

        @staticmethod
        def get(eid):
            return None

    def __init__(self):
        self.backend = self._Backend()
        self.mapping = self._Mapping()
        self.outstanding = 0
        self.observers = {}


class TestScrubberLifecycle:
    def test_attaches_to_device_and_stops(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        dev = _FakeDevice()
        scrubber = MediaScrubber(sim, dev, ScrubConfig(interval_s=0.01))
        assert dev.observers["scrubber"] is scrubber
        scrubber.start()
        sim.schedule(0.1, lambda: None)
        sim.run()
        assert scrubber.stats.ticks > 0
        ticks = scrubber.stats.ticks
        scrubber.stop()
        sim.schedule(0.1, lambda: None)
        sim.run()
        assert scrubber.stats.ticks == ticks  # daemon actually cancelled

    def test_busy_device_stands_down(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        dev = _FakeDevice()
        dev.outstanding = 99
        scrubber = MediaScrubber(sim, dev, ScrubConfig(max_outstanding=4))
        scrubber.start()
        sim.schedule(0.05, lambda: None)
        sim.run()
        assert scrubber.stats.skipped_busy == scrubber.stats.ticks > 0

    def test_audit_surfaces(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        scrubber = MediaScrubber(sim, _FakeDevice())
        scrubber._note(3, 4096, 512, "repair-parity", "ssd1")
        table = scrubber.audit_table()
        assert "scrub audit" in table
        assert "repair-parity" in table
        d = scrubber.to_dict()
        assert set(d) == {"config", "stats", "episodes"}
        assert d["episodes"][0]["action"] == "repair-parity"


# ----------------------------------------------------------------------
# fleet replica repair hook
# ----------------------------------------------------------------------
class TestReplicaSource:
    def test_replica_source_reingests_from_peer(self):
        from tests.test_cluster_replication import (
            BS, populate, rep_fleet, run_all,
        )

        fleet = rep_fleet(n_shards=2)
        populate(fleet, range(8))
        mgr = fleet.replication
        name = sorted(fleet.cluster.shards)[0]
        repair = mgr.replica_source_for(name)
        assert repair(0, BS) is True
        run_all(fleet)
        assert mgr.stats.scrub_repairs >= 1
        assert mgr.stats.scrub_repair_bytes >= BS

    def test_unwritten_range_is_not_repairable(self):
        from tests.test_cluster_replication import rep_fleet, run_all

        fleet = rep_fleet(n_shards=2)
        run_all(fleet)
        name = sorted(fleet.cluster.shards)[0]
        repair = fleet.replication.replica_source_for(name)
        assert repair(1 << 26, 4096) is False
        assert fleet.replication.stats.scrub_repairs == 0
