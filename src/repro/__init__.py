"""EDC — Elastic Data Compression for flash-based storage systems.

A from-scratch reproduction of Mao, Jiang, Wu, Yang and Xi, *Elastic
Data Compression with Improved Performance and Space Efficiency for
Flash-based Storage Systems* (IPDPS 2017).

The package is organised as the paper's system plus every substrate it
stands on:

====================  ====================================================
:mod:`repro.core`     the contribution: Workload Monitor, Sequentiality
                      Detector, Compression Engine, Request Distributer
                      and the :class:`~repro.core.device.EDCBlockDevice`
:mod:`repro.compression`
                      codecs (from-scratch LZF/LZ4, zlib/bz2/lzma),
                      compressibility estimation, calibrated cost model
:mod:`repro.flash`    simulated SSD: log-structured FTL, greedy GC,
                      the RAIS5 array, size-class allocator, mapping
:mod:`repro.sim`      discrete-event engine, queues, metrics
:mod:`repro.traces`   SPC/MSR parsers and burst/idle trace synthesis
:mod:`repro.sdgen`    SDGen-style compression-realistic content
:mod:`repro.bench`    the experiment harness behind every paper figure
====================  ====================================================

Quick start::

    from repro.sim import Simulator
    from repro.flash import SimulatedSSD
    from repro.core import EDCBlockDevice, ElasticPolicy, EDCConfig
    from repro.sdgen import ContentStore
    from repro.sdgen.datasets import ENTERPRISE_MIX

    sim = Simulator()
    ssd = SimulatedSSD(sim)
    device = EDCBlockDevice(
        sim, ssd, ElasticPolicy(),
        ContentStore(ENTERPRISE_MIX), EDCConfig(),
    )

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
figure-by-figure reproduction of the paper's evaluation.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
