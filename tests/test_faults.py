"""Tests for the fault-injection subsystem (plans, retries, degraded RAIS5).

Covers the contract the chaos harness depends on: deterministic seeded
injectors, bounded-backoff read retries, remap-and-retire program
failures, single-fault absorption with event-driven rebuild on RAIS5,
typed error propagation through ``_Barrier``, and — crucially — that an
empty plan leaves a replay bit-identical to the baseline.
"""

import pytest

from repro.compression.codec import Codec, CodecError, CodecRegistry
from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.policy import FixedPolicy
from repro.faults import (
    PLAN_SCHEMA,
    DeviceFailedError,
    DeviceFailure,
    FaultPlan,
    FaultStats,
    PowerLoss,
    ReadFaultError,
)
from repro.flash.geometry import NandGeometry, x25e_like
from repro.flash.introspect import ssds_served
from repro.flash.raid import RAIS0, RAIS5, ArrayError, _Barrier
from repro.flash.ssd import SimulatedSSD
from repro.sdgen.generator import ContentMix, ContentStore
from repro.sim.engine import Simulator
from repro.traces.model import IORequest


def make_ssd(sim, plan=None, name="ssd0", mb=32):
    ssd = SimulatedSSD(sim, name=name, geometry=x25e_like(mb))
    if plan is not None:
        ssd.injector = plan.injector_for(name)
    return ssd


def make_rais5(sim, n=5, unit=4096, mb=32):
    devices = [
        SimulatedSSD(sim, name=f"ssd{i}", geometry=x25e_like(mb)) for i in range(n)
    ]
    return RAIS5(devices, stripe_unit=unit), devices


class TestFaultPlan:
    def test_round_trips_through_json(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            read_fault_prob=0.01,
            program_fault_prob=0.002,
            wear_ber_per_pe=5e-4,
            latency_spike_prob=0.005,
            latency_spike_s=0.002,
            device_failures=(DeviceFailure(5.0, "ssd2"),),
            rebuild_delay_s=0.25,
            rebuild_batch_rows=8,
        )
        path = str(tmp_path / "plan.json")
        plan.to_json(path)
        assert FaultPlan.from_json(path) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"seed": 1, "raed_fault_prob": 0.1})

    def test_device_failures_accept_dicts(self):
        plan = FaultPlan.from_dict(
            {"device_failures": [{"at": 1.0, "device": "ssd0"}]}
        )
        assert plan.device_failures == (DeviceFailure(1.0, "ssd0"),)

    def test_power_losses_round_trip_through_json(self, tmp_path):
        plan = FaultPlan(
            seed=11, power_losses=(PowerLoss(at=4.0), PowerLoss(at=9.0))
        )
        path = str(tmp_path / "crash.json")
        plan.to_json(path)
        loaded = FaultPlan.from_json(path)
        assert loaded == plan
        assert loaded.power_losses == (PowerLoss(4.0), PowerLoss(9.0))
        assert not loaded.is_empty

    def test_schema_field_serialised_and_enforced(self):
        d = FaultPlan(seed=1).to_dict()
        assert d["schema"] == PLAN_SCHEMA
        assert FaultPlan.from_dict(d) == FaultPlan(seed=1)
        with pytest.raises(ValueError, match="unsupported fault-plan schema"):
            FaultPlan.from_dict({"schema": PLAN_SCHEMA + 1})

    def test_unknown_nested_keys_rejected_with_precise_errors(self):
        with pytest.raises(ValueError, match=r"power-loss keys \['att'\]"):
            FaultPlan.from_dict({"power_losses": [{"att": 4.0}]})
        with pytest.raises(ValueError, match=r"device-failure keys \['dev'\]"):
            FaultPlan.from_dict({"device_failures": [{"at": 1.0, "dev": "x"}]})
        with pytest.raises(ValueError, match="must be a PowerLoss or mapping"):
            FaultPlan(power_losses=(4.0,))

    def test_power_loss_time_must_be_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            PowerLoss(at=0.0)
        with pytest.raises(ValueError, match="must be positive"):
            PowerLoss(at=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"read_fault_prob": 1.5},
            {"program_fault_prob": -0.1},
            {"latency_spike_s": -1.0},
            {"max_read_retries": -1},
            {"rebuild_batch_rows": 0},
            {"retry_backoff_s": 2.0, "retry_backoff_cap_s": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_empty_plan_is_empty(self):
        assert FaultPlan.empty().is_empty
        assert not FaultPlan(read_fault_prob=0.1).is_empty
        assert not FaultPlan(device_failures=(DeviceFailure(1.0, "x"),)).is_empty

    def test_attach_rejects_unknown_device_name(self):
        sim = Simulator()
        ssd = make_ssd(sim)
        plan = FaultPlan(device_failures=(DeviceFailure(1.0, "nope"),))
        with pytest.raises(ValueError, match="unknown device"):
            plan.attach(sim, ssd)

    def test_total_stats_merges(self):
        plan = FaultPlan(seed=3)
        a, b = plan.injector_for("a"), plan.injector_for("b")
        a.stats.read_faults = 2
        b.stats.read_faults = 3
        b.stats.blocks_retired = 1
        total = plan.total_stats([a, b])
        assert total.read_faults == 5
        assert total.blocks_retired == 1
        assert set(total.as_dict()) == set(FaultStats.FIELDS)


class TestFaultInjector:
    def test_same_seed_and_name_same_rolls(self):
        plan = FaultPlan(seed=11, read_fault_prob=0.3, program_fault_prob=0.3)
        a = plan.injector_for("ssd0")
        b = plan.injector_for("ssd0")
        rolls_a = [a.roll_read_fault() for _ in range(200)]
        rolls_b = [b.roll_read_fault() for _ in range(200)]
        assert rolls_a == rolls_b

    def test_different_names_different_streams(self):
        plan = FaultPlan(seed=11, read_fault_prob=0.3)
        a = plan.injector_for("ssd0")
        b = plan.injector_for("ssd1")
        assert [a.roll_read_fault() for _ in range(200)] != [
            b.roll_read_fault() for _ in range(200)
        ]

    def test_zero_probability_draws_no_randomness(self):
        # The empty-plan bit-identity guarantee: rolls that cannot fire
        # must not consume RNG state (or count anything).
        plan = FaultPlan.empty(seed=5)
        inj = plan.injector_for("ssd0")
        state = inj.rng.getstate()
        assert not inj.roll_read_fault()
        assert not inj.roll_program_fault()
        assert inj.latency_spike() == 0.0
        assert inj.rng.getstate() == state
        assert inj.stats.as_dict() == FaultStats().as_dict()

    def test_wear_coupling_raises_probability(self):
        plan = FaultPlan(seed=2, read_fault_prob=0.0, wear_ber_per_pe=0.05)
        inj = plan.injector_for("ssd0")
        # With zero wear the probability is zero: never fires.
        assert not any(inj.roll_read_fault(wear=0) for _ in range(100))
        assert any(inj.roll_read_fault(wear=10) for _ in range(100))

    def test_backoff_doubles_and_caps(self):
        plan = FaultPlan(retry_backoff_s=1e-4, retry_backoff_cap_s=1e-3)
        inj = plan.injector_for("ssd0")
        assert inj.backoff(0) == pytest.approx(1e-4)
        assert inj.backoff(1) == pytest.approx(2e-4)
        assert inj.backoff(2) == pytest.approx(4e-4)
        assert inj.backoff(10) == pytest.approx(1e-3)  # capped
        with pytest.raises(ValueError):
            inj.backoff(-1)


class TestSsdReadRetries:
    def test_transient_faults_recovered_by_retry(self):
        sim = Simulator()
        plan = FaultPlan(seed=4, read_fault_prob=0.5, max_read_retries=8)
        ssd = make_ssd(sim, plan)
        done = []
        for i in range(50):
            sim.schedule_at(
                i * 1e-3, lambda i=i: ssd.submit_read(0, 4096, lambda: done.append(i))
            )
        sim.run()
        st = ssd.injector.stats
        assert len(done) == 50  # every read completed
        assert st.read_faults > 0
        assert st.read_retries == st.read_faults  # each fault retried
        assert st.reads_recovered > 0
        assert st.reads_unrecovered == 0

    def test_exhausted_budget_reaches_on_error(self):
        sim = Simulator()
        plan = FaultPlan(seed=1, read_fault_prob=1.0, max_read_retries=2)
        ssd = make_ssd(sim, plan)
        errors, done = [], []
        sim.schedule_at(
            0.0, lambda: ssd.submit_read(0, 4096, done.append, on_error=errors.append)
        )
        sim.run()
        assert done == []
        assert len(errors) == 1
        assert isinstance(errors[0], ReadFaultError)
        st = ssd.injector.stats
        assert st.read_faults == 3  # initial attempt + 2 retries
        assert st.read_retries == 2
        assert st.reads_unrecovered == 1

    def test_unhandled_exhaustion_raises_out_of_the_loop(self):
        sim = Simulator()
        plan = FaultPlan(seed=1, read_fault_prob=1.0, max_read_retries=0)
        ssd = make_ssd(sim, plan)
        sim.schedule_at(0.0, lambda: ssd.submit_read(0, 4096))
        with pytest.raises(ReadFaultError):
            sim.run()

    def test_retries_delay_completion_by_backoff(self):
        sim = Simulator()
        plan = FaultPlan(
            seed=1, read_fault_prob=1.0, max_read_retries=2,
            retry_backoff_s=1e-3, retry_backoff_cap_s=1e-2,
        )
        ssd = make_ssd(sim, plan)
        errors = []
        sim.schedule_at(0.0, lambda: ssd.submit_read(0, 4096, on_error=errors.append))
        sim.run()
        # 3 attempts' service plus the two backoff waits (1 ms + 2 ms).
        assert sim.now == pytest.approx(3 * ssd.service_read_time(4096) + 3e-3)


class TestSsdProgramFaults:
    def test_program_fault_retires_block_without_double_charge(self):
        sim = Simulator()
        plan = FaultPlan(seed=9, program_fault_prob=1.0)
        ssd = make_ssd(sim, plan)
        written = 0
        for i in range(8):
            sim.schedule_at(i * 1e-3, lambda i=i: ssd.submit_write(i * 4096, 4096))
            written += 4096
        sim.run()
        st = ssd.injector.stats
        assert st.program_faults == 8
        assert st.blocks_retired >= 1
        assert ssd.ftl.retired_blocks >= 1
        # Host bytes are charged exactly once per write: the reprogram
        # after a retirement must not inflate write amplification's
        # denominator.
        assert ssd.ftl.stats.host_bytes == written
        lost = ssd.ftl.retired_blocks * ssd.geometry.block_bytes
        assert ssd.ftl.effective_logical_bytes == (
            ssd.geometry.logical_bytes - lost
        )
        ssd.ftl.check_invariants()

    def test_retired_blocks_stay_out_of_service(self):
        sim = Simulator()
        plan = FaultPlan(seed=9, program_fault_prob=1.0)
        ssd = make_ssd(sim, plan)
        for i in range(200):
            sim.schedule_at(i * 1e-3, lambda i=i: ssd.submit_write(i * 4096, 4096))
        sim.run()
        ssd.ftl.check_invariants()  # retired ∉ free/sealed/active is asserted there
        assert ssd.ftl.retired_blocks > 0


class TestDeviceFailure:
    def test_failed_device_rejects_io(self):
        sim = Simulator()
        ssd = make_ssd(sim, FaultPlan.empty())
        ssd.fail_now()
        ssd.fail_now()  # idempotent
        assert ssd.injector.stats.device_failures == 1
        with pytest.raises(DeviceFailedError):
            ssd.submit_write(0, 4096)
        with pytest.raises(DeviceFailedError):
            ssd.submit_read(0, 4096)

    def test_error_delivery_is_deferred_not_reentrant(self):
        sim = Simulator()
        ssd = make_ssd(sim)
        ssd.fail_now()
        errors = []
        sim.schedule_at(
            0.0, lambda: ssd.submit_read(0, 4096, on_error=errors.append)
        )
        assert errors == []  # not delivered synchronously at submit
        sim.run()
        assert len(errors) == 1
        assert isinstance(errors[0], DeviceFailedError)

    def test_scheduled_failure_fires_via_attach(self):
        sim = Simulator()
        ssd = make_ssd(sim)
        plan = FaultPlan(device_failures=(DeviceFailure(0.5, "ssd0"),))
        plan.attach(sim, ssd)
        assert ssd.injector is not None
        sim.schedule_at(1.0, lambda: None)  # keep the sim alive past t=0.5
        sim.run()
        assert ssd.failed
        assert ssd.injector.stats.device_failures == 1


class TestBarrierErrors:
    def test_fail_suppresses_completion(self):
        done, errs = [], []
        b = _Barrier(2, lambda: done.append(1), errs.append)
        b.arrive()
        b.fail(RuntimeError("x"))
        assert done == []
        assert len(errs) == 1

    def test_only_first_failure_reported(self):
        errs = []
        b = _Barrier(3, None, errs.append)
        b.fail(RuntimeError("first"))
        b.fail(RuntimeError("second"))
        b.arrive()
        assert [str(e) for e in errs] == ["first"]

    def test_fail_without_handler_raises(self):
        b = _Barrier(1, None)
        with pytest.raises(RuntimeError, match="boom"):
            b.fail(RuntimeError("boom"))

    def test_add_grows_expected_count(self):
        done = []
        b = _Barrier(1, lambda: done.append(1))
        b.add(2)
        b.arrive()
        b.arrive()
        assert done == []
        b.arrive()
        assert done == [1]

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            _Barrier(1, None).add(-1)


class TestRais0Errors:
    def test_member_error_propagates_as_array_error(self):
        sim = Simulator()
        devices = [
            SimulatedSSD(sim, name=f"ssd{i}", geometry=x25e_like(32))
            for i in range(2)
        ]
        arr = RAIS0(devices)
        devices[1].fail_now()
        done, errs = [], []
        sim.schedule_at(
            0.0,
            lambda: arr.submit_read(
                0, 4096 * 2, on_complete=lambda: done.append(1),
                on_error=errs.append,
            ),
        )
        sim.run()
        assert done == []
        assert len(errs) == 1
        assert isinstance(errs[0], ArrayError)
        assert arr.stats.unrecovered_reads == 1


class TestRais5Degraded:
    def test_double_failure_rejected(self):
        sim = Simulator()
        arr, _ = make_rais5(sim)
        arr.fail_device(0)
        with pytest.raises(ArrayError):
            arr.fail_device(1)

    def test_member_error_enters_degraded_and_read_reconstructs(self):
        sim = Simulator()
        arr, devices = make_rais5(sim)
        done = []
        sim.schedule_at(0.0, lambda: arr.submit_write(0, 4096 * 4))
        sim.schedule_at(0.05, lambda: devices[1].fail_now())
        # Spans every data device, so some unit lands on the dead member.
        sim.schedule_at(
            0.1, lambda: arr.submit_read(0, 4096 * 4, lambda: done.append(1))
        )
        sim.run()
        assert done == [1]  # the read still completed
        assert arr.degraded
        assert arr.stats.member_failures == 1
        assert arr.stats.degraded_reads >= 1
        assert len(arr.degraded_windows) == 1
        assert arr.degraded_windows[0][1] is None  # window still open

    def test_degraded_write_folds_into_parity(self):
        sim = Simulator()
        arr, devices = make_rais5(sim)
        done = []
        sim.schedule_at(0.0, lambda: arr.submit_write(0, 4096 * 4))
        sim.schedule_at(0.05, lambda: devices[2].fail_now())
        sim.schedule_at(
            0.1, lambda: arr.submit_write(0, 4096 * 4, lambda: done.append(1))
        )
        sim.run()
        assert done == [1]
        assert arr.stats.degraded_writes >= 1
        assert arr.stats.unrecovered_writes == 0

    def test_rebuild_validates_replacement(self):
        sim = Simulator()
        arr, devices = make_rais5(sim)
        spare = SimulatedSSD(sim, name="spare", geometry=x25e_like(32))
        with pytest.raises(ArrayError, match="no failed device"):
            arr.rebuild(spare)
        arr.fail_device(0)
        small = SimulatedSSD(sim, name="small", geometry=x25e_like(16))
        with pytest.raises(ArrayError, match="too small"):
            arr.rebuild(small)
        odd_geo = NandGeometry(page_size=8192, pages_per_block=16, nblocks=512)
        odd = SimulatedSSD(sim, name="odd", geometry=odd_geo)
        with pytest.raises(ArrayError, match="geometry mismatch"):
            arr.rebuild(odd)
        with pytest.raises(ArrayError, match="already a member"):
            arr.rebuild(devices[1])
        dead = SimulatedSSD(sim, name="dead", geometry=x25e_like(32))
        dead.fail_now()
        with pytest.raises(ArrayError, match="already failed"):
            arr.rebuild(dead)
        # A valid replacement is accepted and clears degraded mode.
        arr.rebuild(spare)
        sim.run()
        assert not arr.degraded
        assert arr.stats.rebuilds == 1

    def test_auto_rebuild_returns_to_non_degraded(self):
        sim = Simulator()
        arr, devices = make_rais5(sim)
        plan = FaultPlan(
            seed=3,
            device_failures=(DeviceFailure(0.05, "ssd1"),),
            rebuild_delay_s=0.01,
            rebuild_batch_rows=4,
        )
        plan.attach(sim, arr)
        # Touch a few stripe rows, then keep traffic flowing past the
        # failure so the dead member is detected and rebuilt.
        for i in range(6):
            sim.schedule_at(
                i * 5e-3, lambda i=i: arr.submit_write(i * 4096 * 4, 4096 * 4)
            )
        for i in range(4):
            sim.schedule_at(
                0.06 + i * 5e-3,
                lambda i=i: arr.submit_write(i * 4096 * 4, 4096 * 4),
            )
        sim.run()
        assert not arr.degraded
        assert arr.stats.member_failures == 1
        assert arr.stats.rebuilds == 1
        assert arr.stats.rebuilt_rows >= 1
        assert devices is not arr.devices  # original list unchanged
        assert arr.devices[1].name == "spare1"
        # The degraded window closed when the rebuild finished.
        assert len(arr.degraded_windows) == 1
        start, end = arr.degraded_windows[0]
        assert end is not None and end > start
        # Spares inherit the fault plan: their injectors join the pool.
        assert [s.injector.name for s in ssds_served(arr)][-1] == "spare1"
        for d in arr.devices:
            d.ftl.check_invariants()

    def test_spare_is_heard_by_the_failed_members_subscribers(self):
        # Observers subscribe member by member when they bind to a
        # stack; the spare takes the outgoing member's handlers over
        # with its slot, or nobody hears its retirements and service.
        sim = Simulator()
        arr, devices = make_rais5(sim)
        content = ContentStore(ContentMix("m", {"text": 1.0}), pool_blocks=8, seed=1)
        dev = EDCBlockDevice(
            sim, arr, FixedPolicy("lzf"), content, EDCConfig(sd_enabled=False)
        )
        plan = FaultPlan(
            seed=3,
            program_fault_prob=0.2,
            device_failures=(DeviceFailure(0.05, "ssd1"),),
            rebuild_delay_s=0.01,
            rebuild_batch_rows=4,
        )
        plan.attach(sim, arr)
        doomed = devices[1]
        served, jobs, retired_ftls = [], [], []
        doomed.events.subscribe("service", lambda *_: served.append(sim.now))
        doomed.queue.events.subscribe("job", lambda _job: jobs.append(sim.now))
        doomed.ftl.events.subscribe(
            "retire", lambda ftl, *_: retired_ftls.append(ftl)
        )
        for i in range(120):
            sim.schedule_at(
                i * 2e-3,
                lambda i=i: dev.submit(
                    IORequest(sim.now, "W", (i % 24) * 16384, 16384)
                ),
            )
        sim.run()
        spare = arr.devices[1]
        assert spare.name == "spare1" and not arr.degraded
        assert dev.outstanding == 0
        # The handlers subscribed before the failure fire for the spare.
        swapped_at = arr.degraded_windows[0][0] + plan.rebuild_delay_s
        assert max(served) > swapped_at and max(jobs) > swapped_at
        assert retired_ftls.count(spare.ftl) == spare.ftl.retired_blocks > 0
        # Every retirement on a member of the array, the spare's
        # included, shrank the allocator's capacity.
        assert dev.allocator.stats.retirements == doomed.ftl.retired_blocks + sum(
            d.ftl.retired_blocks for d in arr.devices
        )

    def test_rows_written_during_rebuild_are_picked_up(self):
        sim = Simulator()
        arr, devices = make_rais5(sim)
        for i in range(12):
            sim.schedule_at(
                i * 1e-3, lambda i=i: arr.submit_write(i * 4096 * 4, 4096 * 4)
            )
        sim.schedule_at(0.05, lambda: arr.fail_device(1))
        spare = SimulatedSSD(sim, name="spare", geometry=x25e_like(32))
        done = []
        sim.schedule_at(
            0.06,
            lambda: arr.start_rebuild(
                spare, on_complete=lambda: done.append(sim.now), rows_per_batch=2
            ),
        )
        # Foreground write racing the rebuild touches a fresh row.
        sim.schedule_at(0.061, lambda: arr.submit_write(40 * 4096 * 4, 4096 * 4))
        sim.run()
        assert done, "rebuild never completed"
        assert not arr.degraded
        assert 40 in arr._touched_rows
        assert arr.stats.rebuilt_rows == len(arr._touched_rows)


class TestCodecFallback:
    def test_codec_error_falls_back_to_raw(self):
        class Exploding(Codec):
            name = "boom"
            tag = 1

            def compress(self, data):
                raise CodecError("injected codec failure")

            def decompress(self, data, original_size=None):
                raise CodecError("unreachable")

        sim = Simulator()
        ssd = SimulatedSSD(sim, geometry=x25e_like(32))
        content = ContentStore(ContentMix("m", {"text": 1.0}), pool_blocks=8, seed=1)
        registry = CodecRegistry()
        registry.register(Exploding())
        cfg = EDCConfig(sd_enabled=False)
        dev = EDCBlockDevice(
            sim, ssd, FixedPolicy("boom"), content, cfg, registry=registry
        )
        sim.schedule_at(0.0, lambda: dev.submit(IORequest(0.0, "W", 0, 4096)))
        sim.run()
        assert dev.stats.codec_fallbacks == 1
        # The write completed, stored raw.
        assert dev.stats.writes == 1
        assert dev.stats.compression_ratio == pytest.approx(1.0)


class TestEmptyPlanBitIdentity:
    @pytest.mark.parametrize("backend", ["ssd", "rais5"])
    def test_empty_plan_replay_matches_baseline(self, backend):
        from repro.bench.experiments import ReplayConfig, replay
        from repro.traces.workloads import make_workload

        trace = make_workload("Fin1", duration=2.0)
        cfg = ReplayConfig(backend=backend)
        base = replay(trace, "EDC", cfg)
        chaos = replay(trace, "EDC", cfg, fault_plan=FaultPlan.empty())
        assert base == chaos
