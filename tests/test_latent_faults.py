"""Tests for the latent-error models (retention loss, read disturb).

Locks the contracts the media scrubber depends on: schema-versioned
plan serialisation with precise unknown-key errors, per-block CRC
detection of *every* content-changing single-bit flip in a stored
compressed payload (across all registered codecs), corruption surfacing
as a counted :class:`IntegrityError` on the host read path (never a
``ReadFaultError`` retry storm), deterministic seeded draws, and the
no-op guarantee: a plan without latent fields arms no models and draws
no randomness.
"""

import pytest

from repro.compression.codec import default_registry
from repro.core.device import IntegrityError
from repro.faults import FaultPlan
from repro.flash.introspect import ssds_served
from repro.faults.latent import (
    LatentErrorModel,
    LatentStats,
    ReadDisturb,
    RetentionLoss,
)
from repro.recovery.formats import block_crcs

RETENTION = {"rate_per_s": 0.01, "age_factor": 0.5, "check_interval_s": 0.05}
DISTURB = {"reads_per_trigger": 256, "corrupt_prob": 0.02}


def latent_plan(seed=7, **kw):
    kw.setdefault("retention", dict(RETENTION))
    kw.setdefault("read_disturb", dict(DISTURB))
    return FaultPlan(seed=seed, **kw)


# ----------------------------------------------------------------------
# IntegrityError is a real exception (satellite: subclassing fix)
# ----------------------------------------------------------------------
class TestIntegrityErrorClass:
    def test_is_exception_not_assertion(self):
        assert issubclass(IntegrityError, Exception)
        assert not issubclass(IntegrityError, AssertionError)

    def test_survives_pytest_style_assertion_rewriting(self):
        # ``except AssertionError`` (or a bare ``assert``-oriented
        # handler) must NOT swallow an integrity failure.
        with pytest.raises(Exception) as exc_info:
            raise IntegrityError("crc mismatch")
        assert not isinstance(exc_info.value, AssertionError)


# ----------------------------------------------------------------------
# plan serialisation (satellite: round-trip + precise unknown keys)
# ----------------------------------------------------------------------
class TestLatentPlanSerialisation:
    def test_round_trips_through_json(self, tmp_path):
        plan = latent_plan()
        path = str(tmp_path / "plan.json")
        plan.to_json(path)
        back = FaultPlan.from_json(path)
        assert back.retention == RetentionLoss(**RETENTION)
        assert back.read_disturb == ReadDisturb(**DISTURB)
        assert back == plan

    def test_dicts_coerced_to_models(self):
        plan = latent_plan()
        assert isinstance(plan.retention, RetentionLoss)
        assert isinstance(plan.read_disturb, ReadDisturb)

    def test_unknown_retention_key_is_precise(self):
        with pytest.raises(ValueError, match=r"unknown retention keys \['rate'\]"):
            FaultPlan(seed=1, retention={"rate": 0.5})

    def test_unknown_read_disturb_key_is_precise(self):
        with pytest.raises(
            ValueError, match=r"unknown read-disturb keys \['reads'\]"
        ):
            FaultPlan(seed=1, read_disturb={"reads": 10})

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="retention must be"):
            FaultPlan(seed=1, retention=[1, 2])

    @pytest.mark.parametrize("kw", [
        {"rate_per_s": -0.1},
        {"age_factor": -1.0},
        {"wear_factor": -1.0},
        {"check_interval_s": 0.0},
        {"min_age_s": -1.0},
    ])
    def test_retention_validation(self, kw):
        with pytest.raises(ValueError):
            RetentionLoss(**kw)

    @pytest.mark.parametrize("kw", [
        {"reads_per_trigger": 0},
        {"corrupt_prob": -0.1},
        {"corrupt_prob": 1.5},
        {"wear_factor": -1.0},
    ])
    def test_read_disturb_validation(self, kw):
        with pytest.raises(ValueError):
            ReadDisturb(**kw)

    def test_latent_fields_break_is_empty(self):
        assert FaultPlan.empty().is_empty
        assert not FaultPlan(seed=0, retention=RETENTION).is_empty
        assert not FaultPlan(seed=0, read_disturb=DISTURB).is_empty


# ----------------------------------------------------------------------
# bit-flip detection property (satellite: every flip caught by CRC)
# ----------------------------------------------------------------------
def _payload(n=256):
    """Deterministic, mildly compressible content (text + structure)."""
    chunk = b"the quick brown fox jumps over the lazy dog 0123456789 "
    data = (chunk * (n // len(chunk) + 1))[:n]
    return bytes(b ^ (i % 7) for i, b in enumerate(data))


@pytest.mark.parametrize("name", default_registry().names())
def test_every_bit_flip_is_caught_or_harmless(name):
    """Flip each bit of the stored compressed payload; the read path's
    per-block CRC must catch every flip that changes the content.

    Three legal outcomes per flip: the codec rejects the payload
    (surfaced as an ``IntegrityError`` by the device), the decompressed
    content differs (the per-block CRC mismatch catches it), or the
    flip lands in don't-care bits and the content is bit-identical
    (harmless — nothing to catch).  Silent *content* corruption with a
    matching CRC is the only failure, and must never happen.
    """
    codec = default_registry().get(name)
    data = _payload()
    reference = block_crcs(data, 256)
    stored = codec.compress(data)
    detected = harmless = 0
    for bit in range(len(stored) * 8):
        flipped = bytearray(stored)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            out = codec.decompress(bytes(flipped), original_size=len(data))
        except Exception as exc:
            assert not isinstance(exc, AssertionError)
            detected += 1
            continue
        if len(out) != len(data) or block_crcs(out, 256) != reference:
            detected += 1  # CRC catches the content change
        else:
            assert out == data, (
                f"{name}: bit {bit} silently corrupted content past the CRC"
            )
            harmless += 1
    assert detected + harmless == len(stored) * 8
    if name != "none":  # raw passthrough: every flip changes content
        assert detected > 0


def test_none_codec_flips_always_change_content():
    codec = default_registry().get("none")
    data = _payload()
    stored = codec.compress(data)
    for bit in (0, 7, len(stored) * 8 - 1):
        flipped = bytearray(stored)
        flipped[bit // 8] ^= 1 << (bit % 8)
        out = codec.decompress(bytes(flipped), original_size=len(data))
        assert block_crcs(out, 256) != block_crcs(data, 256)


# ----------------------------------------------------------------------
# model mechanics
# ----------------------------------------------------------------------
class TestLatentModel:
    def _model(self, **kw):
        from repro.flash.geometry import x25e_like
        from repro.flash.ssd import SimulatedSSD
        from repro.sim.engine import Simulator

        sim = Simulator()
        ssd = SimulatedSSD(sim, name="ssd0", geometry=x25e_like(16))
        model = LatentErrorModel(7, "ssd0", sim, ssd.ftl, **kw)
        ssd.latent = model
        return sim, ssd, model

    def test_write_and_trim_clear_marks(self):
        sim, ssd, model = self._model()
        ssd.submit_write(0, 4096, key=1)
        sim.run()
        model._corrupt.add(1)
        model.stats.corrupted_extents += 1
        ssd.submit_write(0, 4096, key=1)
        sim.run()
        assert model.corrupt_count == 0
        assert model.stats.cleaned_extents == 1
        model._corrupt.add(1)
        ssd.trim(1)
        assert model.corrupt_count == 0

    def test_prune_dead_drops_vanished_extents(self):
        sim, ssd, model = self._model()
        ssd.submit_write(0, 4096, key=1)
        sim.run()
        model._corrupt.add(1)          # live: stays
        model._corrupt.add(999)        # never written: pruned
        assert model.prune_dead() == 1
        assert model.is_corrupt(1)
        assert not model.is_corrupt(999)

    def test_quiesce_stops_new_corruption(self):
        sim, ssd, model = self._model(
            read_disturb=ReadDisturb(reads_per_trigger=1, corrupt_prob=1.0),
        )
        ssd.submit_write(0, 4096, key=1)
        ssd.submit_write(4096, 4096, key=2)
        sim.run()
        model.quiesce()
        for _ in range(8):
            ssd.submit_read(0, 4096, key=1)
        sim.run()
        assert model.stats.disturb_triggers == 0
        assert model.corrupt_count == 0

    def test_related_and_sorted_accessors(self):
        sim, ssd, model = self._model()
        model._corrupt.update({(5, 1), (5, 0), ("P", 9), ("P", 2), 3})
        assert model.has_corrupt_related(5)
        assert model.has_corrupt_related(3)
        assert not model.has_corrupt_related(4)
        assert sorted(model.corrupt_keys_of(5)) == [(5, 0), (5, 1)]
        assert model.corrupt_parity_rows() == [2, 9]
        assert model.corrupt_data_keys() == [3, (5, 0), (5, 1)]

    def test_stats_fields_complete(self):
        stats = LatentStats()
        assert set(stats.as_dict()) == set(LatentStats.FIELDS)


# ----------------------------------------------------------------------
# harness integration: corruption surfaces as IntegrityError
# ----------------------------------------------------------------------
class TestLatentChaos:
    def _hot_plan(self):
        return FaultPlan(
            seed=3,
            retention={
                "rate_per_s": 1.0, "age_factor": 1.0, "check_interval_s": 0.02,
            },
        )

    def test_host_reads_hit_corrupt_media_without_scrub(self):
        from repro.bench.chaos import run_chaos

        rep = run_chaos(self._hot_plan(), duration=3.0)
        assert rep.verdict == "CORRUPTION"
        assert rep.exit_code == 3
        assert rep.results["corrupt_reads"] > 0  # host saw IntegrityError
        assert rep.sections["faults"]["read_faults"] == 0  # ...not ReadFaultError
        assert rep.results["residual_corrupt"] > 0
        assert rep.sections["latent"]["retention_events"] > 0
        assert rep.sections["latent"]["corrupted_extents"] > 0

    def test_latent_runs_are_deterministic(self):
        from repro.bench.chaos import run_chaos

        a = run_chaos(self._hot_plan(), duration=2.0)
        b = run_chaos(self._hot_plan(), duration=2.0)
        assert a == b

    def test_plan_without_latent_arms_nothing(self):
        from repro.bench.experiments import ReplayConfig, replay
        from repro.traces.workloads import make_workload

        ctx = {}
        replay(
            make_workload("Fin1", duration=1.0), "EDC",
            ReplayConfig(backend="rais5"),
            fault_plan=FaultPlan(seed=1, read_fault_prob=0.001),
            on_built=lambda sim, device, backend, devices: ctx.update(
                backend=backend, devices=devices
            ),
        )
        assert not [
            s.latent for s in ssds_served(ctx["backend"])
            if s.latent is not None
        ]
        assert all(
            getattr(ssd, "latent", None) is None for ssd in ctx["devices"]
        )
