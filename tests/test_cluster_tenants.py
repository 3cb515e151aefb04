"""Tests for token-bucket admission and the QoS scheduler."""

import pytest

from repro.cluster.tenants import QoSScheduler, TenantSpec, TokenBucket
from repro.sim.engine import Simulator
from repro.traces.model import IORequest


def wreq(t=0.0, lba=0):
    return IORequest(t, "W", lba, 4096)


class TestTokenBucket:
    def test_starts_full_and_consumes(self):
        b = TokenBucket(rate=10.0, burst=4.0)
        assert b.available(0.0) == 4.0
        assert b.try_consume(0.0)
        assert b.available(0.0) == 3.0

    def test_refills_continuously_and_caps_at_burst(self):
        b = TokenBucket(rate=10.0, burst=4.0)
        for _ in range(4):
            assert b.try_consume(0.0)
        assert not b.try_consume(0.0)
        assert b.try_consume(0.1)  # one token refilled
        assert b.available(100.0) == 4.0  # capped

    def test_eta_is_consumable(self):
        # regression: eta() returns the *exact* deficit-closing instant;
        # a strict comparison there once livelocked the drain loop.
        b = TokenBucket(rate=3.0, burst=1.0)
        assert b.try_consume(0.0)
        eta = b.eta(0.0)
        assert eta == pytest.approx(1 / 3)
        assert b.try_consume(eta)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("")
        with pytest.raises(ValueError):
            TenantSpec("x", rate_iops=0.0)
        with pytest.raises(ValueError):
            TenantSpec("x", weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec("x", slo=-1.0)


class StubSink:
    """Records dispatches; completes them on demand."""

    def __init__(self, scheduler=None):
        self.calls = []
        self.scheduler = scheduler

    def __call__(self, st, request, arrival):
        self.calls.append((st.name, request, arrival))


class TestQoSScheduler:
    def test_unlimited_tenant_dispatches_synchronously(self):
        sim = Simulator()
        sink = StubSink()
        sched = QoSScheduler(sim, [TenantSpec("t")], sink)
        sched.submit("t", wreq())
        assert len(sink.calls) == 1  # no event round-trip
        assert sched.backlog == 0
        assert sched.state("t").stats.admitted_direct == 1

    def test_throttled_tenant_queues_past_burst(self):
        sim = Simulator()
        sink = StubSink()
        sched = QoSScheduler(
            sim, [TenantSpec("t", rate_iops=10.0, burst=2.0)], sink
        )
        for _ in range(4):
            sched.submit("t", wreq())
        assert len(sink.calls) == 2  # burst admitted directly
        assert sched.backlog == 2
        sim.run()  # drain events release the rest
        assert len(sink.calls) == 4
        assert sched.backlog == 0
        st = sched.state("t")
        assert st.stats.queued == 2
        assert st.stats.max_backlog == 2
        # third token available one bucket-period after t=0
        assert sink.calls[2][2] == 0.0  # arrival preserved for latency
        assert sim.now == pytest.approx(0.2)

    def test_fifo_within_tenant(self):
        sim = Simulator()
        sink = StubSink()
        sched = QoSScheduler(
            sim, [TenantSpec("t", rate_iops=10.0, burst=1.0)], sink
        )
        reqs = [wreq(lba=i * 4096) for i in range(3)]
        for r in reqs:
            sched.submit("t", r)
        sim.run()
        assert [c[1] for c in sink.calls] == reqs

    def test_edf_prefers_tight_slo_tenant(self):
        sim = Simulator()
        sink = StubSink()
        # one shared instant, both tenants backlogged; loose queued first
        sched = QoSScheduler(
            sim,
            [
                TenantSpec("loose", rate_iops=10.0, burst=1.0, slo=0.5),
                TenantSpec("tight", rate_iops=10.0, burst=1.0, slo=0.01),
            ],
            sink,
        )
        for name in ("loose", "tight"):
            sched.submit(name, wreq())  # consumes each burst token
        sched.submit("loose", wreq(lba=4096))
        sched.submit("tight", wreq(lba=8192))
        sim.run()
        drained = [c[0] for c in sink.calls[2:]]
        assert drained[0] == "tight"

    def test_weight_scales_deadline(self):
        sim = Simulator()
        sink = StubSink()
        # same SLO; double weight halves the effective slack
        sched = QoSScheduler(
            sim,
            [
                TenantSpec("std", rate_iops=10.0, burst=1.0, slo=0.1),
                TenantSpec("vip", rate_iops=10.0, burst=1.0, slo=0.1,
                           weight=2.0),
            ],
            sink,
        )
        for name in ("std", "vip"):
            sched.submit(name, wreq())
        sched.submit("std", wreq(lba=4096))
        sched.submit("vip", wreq(lba=8192))
        sim.run()
        assert [c[0] for c in sink.calls[2:]][0] == "vip"

    def test_note_complete_counts_slo_violations(self):
        sim = Simulator()
        sink = StubSink()
        sched = QoSScheduler(sim, [TenantSpec("t", slo=0.01)], sink)
        sched.submit("t", wreq())
        st, _req, arrival = sched.state("t"), *sink.calls[0][1:]
        sim.schedule_at(0.5, lambda: sched.note_complete(st, arrival))
        sim.run()
        assert st.stats.completed == 1
        assert st.stats.slo_violations == 1
        assert st.latency.mean() == pytest.approx(0.5)

    def test_unknown_tenant_and_unbound_dispatch(self):
        with pytest.raises(TypeError):  # a scheduler needs its dispatch
            QoSScheduler(Simulator(), [TenantSpec("t")])
        sched = QoSScheduler(Simulator(), [TenantSpec("t")], StubSink())
        with pytest.raises(KeyError):
            sched.submit("nope", wreq())

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError):
            QoSScheduler(
                Simulator(), [TenantSpec("t"), TenantSpec("t")], StubSink()
            )
