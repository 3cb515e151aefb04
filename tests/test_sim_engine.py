"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(2.5, lambda: None)
        sim.run()
        assert sim.now == 2.5

    def test_run_until_advances_clock_exactly(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=3.0)
        assert sim.now == 3.0
        assert sim.pending == 1

    def test_run_until_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0.5)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append(3))
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(2.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_zero_delay_runs_after_current_instant_events(self):
        sim = Simulator()
        order = []
        sim.schedule(0.0, lambda: order.append("a"))
        sim.schedule(0.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b"]

    def test_event_scheduled_from_event(self):
        sim = Simulator()
        times = []

        def first():
            times.append(sim.now)
            sim.schedule(1.0, lambda: times.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert times == [1.0, 2.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, lambda: fired.append(1))
        assert sim.cancel(h) is True
        sim.run()
        assert fired == []

    def test_cancel_returns_false_for_fired_event(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.cancel(h) is False

    def test_double_cancel_returns_false(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        assert sim.cancel(h)
        assert not sim.cancel(h)

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("keep1"))
        h = sim.schedule(1.0, lambda: fired.append("drop"))
        sim.schedule(1.0, lambda: fired.append("keep2"))
        sim.cancel(h)
        sim.run()
        assert fired == ["keep1", "keep2"]


class TestAccounting:
    def test_pending_and_dispatched_counts(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.pending == 5
        assert sim.dispatched == 0
        sim.run()
        assert sim.pending == 0
        assert sim.dispatched == 5

    def test_cancelled_events_not_dispatched(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(h)
        sim.run()
        assert sim.dispatched == 1

    def test_step_returns_false_when_idle(self):
        assert Simulator().step() is False

    def test_step_dispatches_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]


class TestDaemonEvents:
    def test_daemon_does_not_keep_run_alive(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("fg"))
        sim.schedule(0.5, lambda: fired.append("daemon"), daemon=True)
        sim.schedule(2.0, lambda: fired.append("late-daemon"), daemon=True)
        sim.run()
        # the daemon before the last foreground event fires; the one
        # after it does not (nothing foreground left to serve)
        assert fired == ["daemon", "fg"]
        assert sim.now == 1.0

    def test_daemon_only_heap_runs_nothing(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None, daemon=True)
        sim.run()
        assert sim.now == 0.0
        assert sim.dispatched == 0

    def test_run_until_still_fires_daemons(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1), daemon=True)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_pending_foreground_excludes_daemons(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None, daemon=True)
        assert sim.pending_foreground == 1

    def test_cancelled_foreground_releases_run(self):
        sim = Simulator()
        h = sim.schedule(5.0, lambda: None)
        sim.schedule(1.0, lambda: None, daemon=True)
        sim.cancel(h)
        sim.run()  # nothing foreground left: returns immediately
        assert sim.now == 0.0


class TestPeriodicEvent:
    def test_every_fires_between_foreground_work(self):
        sim = Simulator()
        ticks = []
        ev = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]
        assert ev.fired == 3

    def test_cancel_stops_rescheduling(self):
        sim = Simulator()
        ticks = []
        ev = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(1.5, ev.cancel)
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert ticks == [1.0]
        assert ev.cancelled

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)


class TestNaNTimes:
    """NaN compares false with everything, so a ``time < now`` guard
    let it through and the heap then dispatched out of time order."""

    def test_schedule_at_nan_rejected(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending == 1

    def test_schedule_nan_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(float("nan"), lambda: None)

    def test_run_until_nan_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().run(until=float("nan"))

    def test_clock_never_runs_backwards(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 0.5, 2.0):
            sim.schedule_at(t, lambda: seen.append(sim.now))
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.5, 1.0, 2.0]


class Req:
    def __init__(self, time, name):
        self.time = time
        self.name = name


def stream(*times, prefix="a"):
    return [Req(t, f"{prefix}{i}") for i, t in enumerate(times)]


class TestArrivals:
    def test_items_submitted_at_their_times(self):
        sim = Simulator()
        seen = []
        sim.arrivals(stream(0.5, 1.0, 1.0, 3.0), lambda r: seen.append((r.name, sim.now)))
        sim.run()
        assert seen == [("a0", 0.5), ("a1", 1.0), ("a2", 1.0), ("a3", 3.0)]
        assert sim.dispatched == 4

    def test_one_pending_arrival_per_stream_on_the_heap(self):
        sim = Simulator()
        sim.arrivals(stream(*range(1000)), lambda r: None)
        sim.arrivals(stream(*range(500), prefix="b"), lambda r: None)
        assert len(sim._heap) == 2
        sim.run(until=250.5)
        assert len(sim._heap) == 2

    def test_pending_counts_arrivals_not_yet_pushed(self):
        sim = Simulator()
        sim.arrivals(stream(1.0, 2.0, 3.0), lambda r: None)
        sim.schedule(1.5, lambda: None, daemon=True)
        assert (sim.pending, sim.pending_foreground) == (4, 3)
        sim.run(until=2.0)
        assert (sim.pending, sim.pending_foreground) == (1, 1)
        sim.run()
        assert (sim.pending, sim.pending_foreground) == (0, 0)

    def test_ties_break_by_registration_order(self):
        """Arrival k dispatches under the seq an eager loop would give it."""
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append("before"))
        sim.arrivals(stream(1.0, 1.0), lambda r: seen.append(r.name))
        sim.schedule_at(1.0, lambda: seen.append("after"))
        sim.arrivals(stream(1.0, prefix="b"), lambda r: seen.append(r.name))
        sim.run()
        assert seen == ["before", "a0", "a1", "after", "b0"]

    def test_events_scheduled_at_an_arrival_instant_follow_the_stream(self):
        sim = Simulator()
        seen = []

        def submit(r):
            seen.append(r.name)
            sim.defer(lambda: seen.append("defer-" + r.name))

        sim.arrivals(stream(1.0, 1.0, 2.0), submit)
        sim.run()
        assert seen == ["a0", "a1", "defer-a0", "defer-a1", "a2", "defer-a2"]

    def test_empty_stream_schedules_nothing(self):
        sim = Simulator()
        sim.arrivals([], lambda r: None)
        assert sim.pending == 0 and not sim.step()

    def test_decreasing_times_rejected_with_index(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="arrival 2 .* before arrival 1"):
            sim.arrivals(stream(0.0, 2.0, 1.0), lambda r: None)
        assert sim.pending == 0

    def test_stream_starting_before_now_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="arrival 0 .* before now"):
            sim.arrivals(stream(4.0, 6.0), lambda r: None)

    def test_nan_time_rejected(self):
        with pytest.raises(SimulationError, match="arrival 1 at nan"):
            Simulator().arrivals(stream(0.0, float("nan"), 1.0), lambda r: None)


class TestHandles:
    def test_handle_is_the_heap_entry(self):
        sim = Simulator()
        h = sim.schedule(2.0, lambda: None)
        assert (h.time, h.seq) == (2.0, 0)
        assert sim._heap[0] is h

    def test_dispatch_releases_the_action(self):
        """A handle kept after its event fired does not pin the callback."""
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.run()
        assert h[2] is None and h.time == 1.0
