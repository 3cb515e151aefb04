"""Benches for the paper's §VI future-work directions, implemented here.

1. semantic (file-type) hints refining codec selection,
2. EDC on an HDD-based system,
3. energy consumption of compression vs data-movement savings,
4. endurance/lifetime impact of compression.
"""

import dataclasses

import pytest

from repro.core.config import EDCConfig
from repro.core.device import EDCBlockDevice
from repro.core.hints import HintedPolicy
from repro.core.policy import ElasticPolicy, FixedPolicy, NativePolicy
from repro.energy import EnergyModel
from repro.flash.geometry import x25e_like
from repro.flash.hdd import SimulatedHDD
from repro.flash.introspect import smart_snapshot
from repro.flash.ssd import SimulatedSSD
from repro.sdgen.datasets import ENTERPRISE_MIX
from repro.sdgen.generator import ContentStore
from repro.sim.engine import Simulator
from repro.tables import render_table
from repro.traces.workloads import make_workload

DURATION = 80.0


def _replay(policy, backend_kind="ssd", semantic_hints=False, trace_name="Fin1",
            capacity_mb=128):
    sim = Simulator()
    geo = x25e_like(capacity_mb)
    if backend_kind == "ssd":
        backend = SimulatedSSD(sim, geometry=geo)
    else:
        backend = SimulatedHDD(sim)
    content = ContentStore(ENTERPRISE_MIX, pool_blocks=512, seed=5)
    cfg = EDCConfig(semantic_hints=semantic_hints)
    dev = EDCBlockDevice(sim, backend, policy, content, cfg)
    trace = make_workload(trace_name, duration=DURATION, max_requests=None, seed=42)
    fold = int(geo.logical_bytes * 0.8) // 4096 * 4096
    trace = trace.scaled_addresses(fold)
    for req in trace:
        sim.schedule_at(req.time, lambda r=req: dev.submit(r))
    sim.run()
    dev.flush()
    sim.run()
    return sim, backend, dev


class TestSemanticHints:
    def test_hints_vs_plain_edc(self, benchmark):
        plain, hinted = benchmark.pedantic(
            lambda: (
                _replay(ElasticPolicy()),
                _replay(HintedPolicy(), semantic_hints=True),
            ),
            rounds=1,
            iterations=1,
        )
        _, _, dp = plain
        _, _, dh = hinted
        print()
        print(
            render_table(
                ["policy", "ratio", "resp ms", "estimator calls"],
                [
                    ["EDC", dp.stats.compression_ratio,
                     dp.mean_response_time() * 1e3, dp.engine.estimator.stats.total],
                    ["EDC+hints", dh.stats.compression_ratio,
                     dh.mean_response_time() * 1e3, dh.engine.estimator.stats.total],
                ],
                title="Extension: semantic (file-type) hints",
            )
        )
        # Hints eliminate most estimator work (only unhinted classes remain).
        assert dh.engine.estimator.stats.total < dp.engine.estimator.stats.total / 2
        # Strong-content upgrades buy at least as much space.
        assert dh.stats.compression_ratio >= dp.stats.compression_ratio * 0.95


class TestEdcOnHdd:
    def test_hdd_backend(self, benchmark):
        results = benchmark.pedantic(
            lambda: {
                "Native": _replay(NativePolicy(), "hdd", trace_name="Usr_0"),
                "EDC": _replay(ElasticPolicy(), "hdd", trace_name="Usr_0"),
            },
            rounds=1,
            iterations=1,
        )
        print()
        rows = []
        for name, (sim, hdd, dev) in results.items():
            rows.append(
                [name, dev.stats.compression_ratio,
                 dev.mean_response_time() * 1e3,
                 hdd.stats.seeks, hdd.stats.sequential_hits]
            )
        print(
            render_table(
                ["scheme", "ratio", "resp ms", "seeks", "seq hits"],
                rows,
                title="Extension: EDC on an HDD (Usr_0)",
            )
        )
        _, _, edc_dev = results["EDC"]
        assert edc_dev.stats.compression_ratio > 1.0
        # Positioning dominates rust: both schemes live in the ms range.
        assert results["Native"][2].mean_response_time() > 1e-3


class TestEnergy:
    def test_energy_tradeoff(self, benchmark):
        results = benchmark.pedantic(
            lambda: {
                name: _replay(pol)
                for name, pol in [
                    ("Native", NativePolicy()),
                    ("Lzf", FixedPolicy("lzf")),
                    ("Bzip2", FixedPolicy("bzip2")),
                    ("EDC", ElasticPolicy()),
                ]
            },
            rounds=1,
            iterations=1,
        )
        model = EnergyModel()
        reports = {}
        rows = []
        for name, (sim, ssd, dev) in results.items():
            rep = model.measure(dev, [ssd], horizon_s=max(sim.now, DURATION))
            reports[name] = rep
            rows.append(
                [name, rep.cpu_joules, rep.device_active_joules,
                 rep.active_joules, rep.joules_per_gb]
            )
        print()
        print(
            render_table(
                ["scheme", "CPU J", "device J", "active J", "J/GB"],
                rows,
                title="Extension: energy of compression vs data-movement savings",
            )
        )
        # The paper's dichotomy, quantified: compression adds CPU joules...
        assert reports["Lzf"].cpu_joules > reports["Native"].cpu_joules
        # ...but removes device-active joules.
        assert (
            reports["Lzf"].device_active_joules
            < reports["Native"].device_active_joules
        )
        # Heavy compression burns far more CPU energy than it saves.
        assert reports["Bzip2"].active_joules > reports["Lzf"].active_joules

    def test_edc_on_rais5_energy_scales_with_devices(self, benchmark):
        from repro.flash.raid import RAIS5

        def run():
            sim = Simulator()
            devices = [
                SimulatedSSD(sim, name=f"ssd{i}", geometry=x25e_like(64))
                for i in range(5)
            ]
            arr = RAIS5(devices)
            content = ContentStore(ENTERPRISE_MIX, pool_blocks=256, seed=5)
            dev = EDCBlockDevice(sim, arr, ElasticPolicy(), content, EDCConfig())
            trace = make_workload("Fin1", duration=40.0, max_requests=None, seed=42)
            for req in trace:
                sim.schedule_at(req.time, lambda r=req: dev.submit(r))
            sim.run()
            dev.flush()
            sim.run()
            return sim, devices, dev

        sim, devices, dev = benchmark.pedantic(run, rounds=1, iterations=1)
        rep = EnergyModel().measure(dev, devices, horizon_s=max(sim.now, 40.0))
        print(f"\nRAIS5 energy: {rep.total_joules:.0f} J total, "
              f"idle floor {rep.device_idle_joules:.0f} J across 5 devices")
        # Five devices -> five idle-power streams dominate the floor.
        assert rep.device_idle_joules > 4 * 40.0 * EnergyModel().params.device_idle_w


class TestEndurance:
    def test_compression_extends_lifetime(self, benchmark):
        results = benchmark.pedantic(
            lambda: {
                name: _replay(pol, capacity_mb=48, trace_name="Prxy_0")
                for name, pol in [
                    ("Native", NativePolicy()),
                    ("Gzip", FixedPolicy("gzip")),
                    ("EDC", ElasticPolicy()),
                ]
            },
            rounds=1,
            iterations=1,
        )
        reports = {}
        rows = []
        for name, (sim, _, dev) in results.items():
            smart = smart_snapshot(dev, max(sim.now, DURATION), "MLC")
            reports[name] = smart
            rows.append(
                [name, smart.total_erases, smart.wear_max,
                 smart.write_amplification, smart.drive_writes_per_day]
            )
        print()
        print(
            render_table(
                ["scheme", "erases", "max/block", "WA", "DWPD"],
                rows,
                title="Extension: endurance under Prxy_0 write churn (MLC)",
            )
        )
        # Compression reduces erase counts (§III-A's reliability objective).
        assert reports["Gzip"].total_erases < reports["Native"].total_erases
        assert reports["EDC"].total_erases < reports["Native"].total_erases
