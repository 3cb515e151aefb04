"""Tests for the FIFO queueing server."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.queueing import Server


@pytest.fixture
def sim():
    return Simulator()


class TestSingleServer:
    def test_single_job_completes_after_service(self, sim):
        srv = Server(sim)
        job = srv.submit(1.5)
        sim.run()
        assert job.start == 0.0
        assert job.completion == 1.5
        assert job.wait == 0.0

    def test_fifo_order(self, sim):
        srv = Server(sim)
        done = []
        for i in range(3):
            srv.submit(1.0, on_complete=lambda j, i=i: done.append(i))
        sim.run()
        assert done == [0, 1, 2]

    def test_second_job_waits_for_first(self, sim):
        srv = Server(sim)
        j1 = srv.submit(2.0)
        j2 = srv.submit(1.0)
        sim.run()
        assert j1.completion == 2.0
        assert j2.start == 2.0
        assert j2.completion == 3.0
        assert j2.wait == 2.0

    def test_start_is_known_at_submit(self, sim):
        srv = Server(sim)
        j1 = srv.submit(2.0)
        j2 = srv.submit(1.0)
        assert (j1.start, j2.start) == (0.0, 2.0)
        assert j2.completion is None
        sim.run()
        assert j2.completion == 3.0

    def test_zero_service_time_allowed(self, sim):
        srv = Server(sim)
        job = srv.submit(0.0)
        sim.run()
        assert job.completion == 0.0

    def test_negative_service_time_rejected(self, sim):
        with pytest.raises(ValueError):
            Server(sim).submit(-1.0)

    def test_idle_period_between_jobs(self, sim):
        srv = Server(sim)
        srv.submit(1.0)
        sim.schedule(5.0, lambda: srv.submit(1.0, on_complete=lambda j: None))
        sim.run()
        assert sim.now == 6.0
        assert srv.stats.busy_time == pytest.approx(2.0)


class TestStats:
    def test_counts(self, sim):
        srv = Server(sim)
        done = []
        srv.events.subscribe("job", done.append)
        jobs = [srv.submit(0.5) for _ in range(4)]
        sim.run()
        assert done == jobs

    def test_busy_time_accumulates(self, sim):
        srv = Server(sim)
        srv.submit(1.0)
        srv.submit(2.0)
        sim.run()
        assert srv.stats.busy_time == pytest.approx(3.0)

    def test_utilization_full_when_back_to_back(self, sim):
        srv = Server(sim)
        srv.submit(1.0)
        srv.submit(1.0)
        sim.run()
        assert srv.utilization() == pytest.approx(1.0)

    def test_utilization_fraction(self, sim):
        srv = Server(sim)
        srv.submit(1.0)
        sim.schedule(4.0, lambda: None)  # extend the horizon
        sim.run()
        assert srv.utilization() == pytest.approx(0.25)

    def test_total_wait(self, sim):
        srv = Server(sim)
        jobs = [srv.submit(1.0) for _ in range(3)]
        sim.run()
        assert sum(j.wait for j in jobs) == pytest.approx(0.0 + 1.0 + 2.0)

    def test_queue_state_properties(self, sim):
        # depth counts the waiting jobs and the one in service
        srv = Server(sim)
        assert srv.depth == 0
        srv.submit(1.0)
        srv.submit(1.0)
        assert srv.depth == 2
        sim.run(until=1.5)
        assert srv.depth == 1
        sim.run()
        assert srv.depth == 0


class TestTieRule:
    def test_a_finish_takes_its_place_when_service_begins(self, sim):
        # The second job's finish is scheduled when the first one ends,
        # not at submit: an event scheduled while the first job is in
        # service, for the instant the second one completes, dispatches
        # before that completion.  Scheduling every finish at submit
        # (c = max(now, free_at) + s, heap sequence taken then) reverses
        # the two, and moves RAIS5 stripe members that finish at the
        # same instant.
        srv = Server(sim)
        order = []
        srv.submit(1.0)
        srv.submit(1.0, on_complete=lambda job: order.append(("finish", sim.now)))
        sim.schedule_at(
            0.5, lambda: sim.schedule_at(2.0, lambda: order.append(("other", sim.now)))
        )
        sim.run()
        assert order == [("other", 2.0), ("finish", 2.0)]


class TestCallbacks:
    def test_callback_sees_completion_time(self, sim):
        srv = Server(sim)
        seen = []
        srv.submit(1.0, on_complete=lambda j: seen.append(sim.now))
        sim.run()
        assert seen == [1.0]

    def test_callback_can_submit_more_work(self, sim):
        srv = Server(sim)
        done = []

        def chain(job):
            if len(done) < 3:
                done.append(sim.now)
                srv.submit(1.0, on_complete=chain)

        srv.submit(1.0, on_complete=chain)
        sim.run()
        assert done == [1.0, 2.0, 3.0]

    def test_tag_preserved(self, sim):
        srv = Server(sim)
        seen = []
        srv.submit(1.0, on_complete=lambda j: seen.append(j.tag), tag=("W", 42))
        sim.run()
        assert seen == [("W", 42)]
