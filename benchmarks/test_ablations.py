"""Ablation benches for EDC's individual design choices (DESIGN.md §5).

Each ablation replays Fin1 with one mechanism toggled and reports its
contribution to ratio, latency and device traffic:

- Sequentiality Detector on/off,
- compressibility gate on/off,
- size-class allocation vs byte-exact allocation,
- monitor window length.
"""

import dataclasses

import pytest

from repro.bench.experiments import ReplayConfig, replay
from repro.core.config import EDCConfig
from repro.tables import render_table
from repro.traces.workloads import make_workload

DURATION = 80.0


@pytest.fixture(scope="module")
def trace():
    return make_workload("Fin1", duration=DURATION, max_requests=None, seed=42)


def run_with(trace, **config_kw):
    cfg = ReplayConfig(device_config=EDCConfig(**config_kw))
    return replay(trace, "EDC", cfg)


class TestSequentialityDetectorAblation:
    def test_sd_contribution(self, benchmark, trace):
        on, off = benchmark.pedantic(
            lambda: (run_with(trace), run_with(trace, sd_enabled=False)),
            rounds=1,
            iterations=1,
        )
        print()
        print(
            render_table(
                ["SD", "ratio", "resp ms", "merged runs", "device writes"],
                [
                    ["on", on.compression_ratio, on.mean_response * 1e3, on.merged_runs, "-"],
                    ["off", off.compression_ratio, off.mean_response * 1e3, off.merged_runs, "-"],
                ],
                title="Ablation: Sequentiality Detector",
            )
        )
        # Merging happens when SD is on (multi-request runs; with SD off
        # only multi-block single requests count).
        assert on.merged_runs > off.merged_runs
        # SD trades a bounded latency cost (buffering) for merging.
        assert on.mean_response < 3 * off.mean_response


class TestGateAblation:
    def test_gate_contribution(self, benchmark, trace):
        on, off = benchmark.pedantic(
            lambda: (run_with(trace), run_with(trace, compressibility_gate=False)),
            rounds=1,
            iterations=1,
        )
        print()
        print(
            render_table(
                ["gate", "ratio", "resp ms", "skipped incompressible", "failed 75%"],
                [
                    ["on", on.compression_ratio, on.mean_response * 1e3,
                     on.skipped_incompressible, "-"],
                    ["off", off.compression_ratio, off.mean_response * 1e3,
                     off.skipped_incompressible, "-"],
                ],
                title="Ablation: compressibility write-through gate",
            )
        )
        # The gate actually fires on this content mix (~30% incompressible).
        assert on.skipped_incompressible > 0
        assert off.skipped_incompressible == 0
        # Space outcome is equivalent (gated blocks would have failed the
        # 75% rule anyway); the gate saves the wasted compression work.
        assert on.compression_ratio == pytest.approx(
            off.compression_ratio, rel=0.05
        )


class TestSizeClassAblation:
    def test_size_classes_vs_byte_exact(self, benchmark, trace):
        classes, exact = benchmark.pedantic(
            lambda: (
                run_with(trace),
                run_with(
                    trace,
                    size_class_fractions=tuple(i / 256 for i in range(1, 257)),
                ),
            ),
            rounds=1,
            iterations=1,
        )
        print()
        print(
            render_table(
                ["allocation", "stored ratio", "payload ratio", "resp ms"],
                [
                    ["25/50/75/100%", classes.compression_ratio,
                     classes.payload_ratio, classes.mean_response * 1e3],
                    ["byte-exact", exact.compression_ratio,
                     exact.payload_ratio, exact.mean_response * 1e3],
                ],
                title="Ablation: size-class vs (near) byte-exact allocation",
            )
        )
        # Coarse classes cost stored space (internal fragmentation)...
        assert exact.compression_ratio >= classes.compression_ratio
        # ...but not unboundedly: within ~35%.
        assert exact.compression_ratio / classes.compression_ratio < 1.35
        # Payload ratios differ only through policy paths.
        assert classes.payload_ratio == pytest.approx(
            exact.payload_ratio, rel=0.25
        )


class TestMonitorWindowAblation:
    def test_window_sensitivity(self, benchmark, trace):
        windows = (0.02, 0.05, 0.5, 2.0)
        results = benchmark.pedantic(
            lambda: [run_with(trace, monitor_window=w) for w in windows],
            rounds=1,
            iterations=1,
        )
        print()
        print(
            render_table(
                ["window s", "ratio", "resp ms", "skip share"],
                [
                    [w, r.compression_ratio, r.mean_response * 1e3,
                     r.codec_shares.get("none", 0.0)]
                    for w, r in zip(windows, results)
                ],
                title="Ablation: monitor window length",
            )
        )
        # All windows produce sane results; long windows lag burst onsets
        # and misclassify more writes into the idle (gzip) band, which
        # shows up as latency.
        for r in results:
            assert r.compression_ratio > 1.0
        fast = results[0].mean_response
        slow = results[-1].mean_response
        assert slow >= fast * 0.8  # long windows never help latency here


class TestHotColdStreamAblation:
    def test_multi_stream_placement(self, benchmark, trace):
        """Extension ablation: hot/cold write streams in the FTL.

        Requires a 2-stream backend, so this bypasses run_with and builds
        the stack explicitly on a small device where GC churns.
        """
        from repro.core.device import EDCBlockDevice
        from repro.core.policy import ElasticPolicy
        from repro.core.replay import TraceReplayer
        from repro.flash.geometry import x25e_like
        from repro.flash.ssd import SimulatedSSD
        from repro.sdgen.datasets import ENTERPRISE_MIX
        from repro.sdgen.generator import ContentStore
        from repro.sim.engine import Simulator

        churn_trace = make_workload(
            "Prxy_0", duration=120.0, max_requests=None, seed=42
        )

        def run(hot_cold):
            sim = Simulator()
            geo = x25e_like(24)
            ssd = SimulatedSSD(sim, geometry=geo, n_streams=2)
            content = ContentStore(ENTERPRISE_MIX, pool_blocks=256, seed=5)
            cfg = EDCConfig(hot_cold_streams=hot_cold, hot_version_threshold=2)
            dev = EDCBlockDevice(sim, ssd, ElasticPolicy(), content, cfg)
            # Partially-shadowed merged runs stay live until fully
            # covered (overlay semantics), so leave headroom above the
            # folded footprint.
            folded = churn_trace.scaled_addresses(
                int(geo.logical_bytes * 0.55) // 4096 * 4096
            )
            TraceReplayer(sim, dev).replay(folded)
            return ssd

        single, dual = benchmark.pedantic(
            lambda: (run(False), run(True)), rounds=1, iterations=1
        )
        print()
        print(
            render_table(
                ["placement", "WA", "erases", "relocated MB"],
                [
                    ["single stream", single.write_amplification(),
                     single.ftl.collector.stats.erases,
                     single.ftl.stats.relocated_bytes / 1e6],
                    ["hot/cold streams", dual.write_amplification(),
                     dual.ftl.collector.stats.erases,
                     dual.ftl.stats.relocated_bytes / 1e6],
                ],
                title="Ablation: hot/cold stream separation",
            )
        )
        # GC actually churned in this configuration ...
        assert single.ftl.collector.stats.erases > 0
        # ... and hot/cold separation does not increase relocation work
        # materially (it usually reduces it).
        assert dual.ftl.stats.relocated_bytes <= single.ftl.stats.relocated_bytes * 1.1
