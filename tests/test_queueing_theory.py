"""Queueing-theory validation of the simulation substrate.

The evaluation's latency numbers are queueing results, so the simulator
must reproduce textbook queueing behaviour.  These tests drive the
:class:`~repro.sim.queueing.Server` with Poisson arrivals and check its
measured waits against closed-form M/D/1 and M/M/1 predictions.
"""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.metrics import LatencyRecorder
from repro.sim.queueing import Server


def run_poisson(service_sampler, rate, n=20_000, seed=1, probe=None):
    """Drive a single server with Poisson(rate) arrivals; return waits.

    ``probe(sim, srv)``, if given, is called before the run starts.
    """
    rng = np.random.default_rng(seed)
    sim = Simulator()
    srv = Server(sim)
    if probe is not None:
        probe(sim, srv)
    waits = LatencyRecorder()
    t = 0.0
    for _ in range(n):
        t += rng.exponential(1.0 / rate)
        svc = service_sampler(rng)
        sim.schedule_at(
            t,
            lambda s=svc: srv.submit(s, on_complete=lambda j: waits.add(j.wait)),
        )
    sim.run()
    return waits, srv


class TestMD1:
    """Deterministic service: W = rho * S / (2 * (1 - rho))."""

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_mean_wait_matches_formula(self, rho):
        service = 0.001
        rate = rho / service
        waits, _ = run_poisson(lambda rng: service, rate)
        expected = rho * service / (2 * (1 - rho))
        assert waits.mean() == pytest.approx(expected, rel=0.15)

    def test_low_load_no_waiting(self):
        waits, _ = run_poisson(lambda rng: 0.001, rate=10.0, n=2000)
        assert waits.mean() < 1e-4


class TestMM1:
    """Exponential service: W = rho * S / (1 - rho)."""

    @pytest.mark.parametrize("rho", [0.5, 0.7])
    def test_mean_wait_matches_formula(self, rho):
        service = 0.001
        rate = rho / service
        waits, _ = run_poisson(lambda rng: rng.exponential(service), rate)
        expected = rho * service / (1 - rho)
        assert waits.mean() == pytest.approx(expected, rel=0.2)


class TestUtilizationLaw:
    def test_measured_utilization_matches_offered_load(self):
        rho = 0.6
        service = 0.001
        waits, srv = run_poisson(lambda rng: service, rho / service)
        assert srv.utilization() == pytest.approx(rho, rel=0.1)

    def test_littles_law(self):
        """L = lambda * (W + S): ``depth`` counts the job in service too,
        time-averaged by a daemon probe every quarter service time."""
        rho = 0.7
        service = 0.001
        rate = rho / service
        depths = []

        def probe(sim, srv):
            sim.every(service / 4, lambda: depths.append(srv.depth))

        waits, _ = run_poisson(lambda rng: service, rate, probe=probe)
        mean_depth = sum(depths) / len(depths)
        assert mean_depth == pytest.approx(rate * (waits.mean() + service), rel=0.2)


class TestOverload:
    def test_overloaded_server_grows_queue_linearly(self):
        """rho > 1: backlog at the end ~ (rho - 1) * horizon."""
        service = 0.001
        rate = 1500.0  # rho = 1.5
        rng = np.random.default_rng(3)
        sim = Simulator()
        srv = Server(sim)
        t = 0.0
        n = 15_000
        for _ in range(n):
            t += rng.exponential(1.0 / rate)
            sim.schedule_at(t, lambda: srv.submit(service))
        horizon = t
        sim.run(until=horizon)
        expected_backlog = (rate * service - 1.0) * horizon / service
        assert srv.depth == pytest.approx(expected_backlog, rel=0.2)
