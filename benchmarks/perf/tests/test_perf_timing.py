"""Filtered-time arithmetic on synthetic stamps."""

import pytest

import timing
from workloads import Recorder


def test_stamp_times_are_midpoints_at_request_count_quantiles():
    times = [float(i) for i in range(1, 101)]  # requests at t = 1..100
    stamps = timing.stamp_times(times, 4)
    # stamp 0 opens the timed region; the others sit between requests
    assert stamps == [0.0, 25.5, 50.5, 75.5]
    assert all(s not in times for s in stamps)


def test_stamp_times_rejects_more_stamps_than_requests():
    with pytest.raises(ValueError):
        timing.stamp_times([0.1, 0.2], 3)
    with pytest.raises(ValueError):
        timing.stamp_times([0.1, 0.2], 0)


def test_filtered_seconds_takes_the_minimum_of_each_segment():
    repeats = [[1.0, 2.0, 3.0], [2.0, 1.0, 3.5], [1.5, 1.5, 9.0]]
    assert timing.filtered_seconds(repeats) == 1.0 + 1.0 + 3.0
    # a burst that hits a different segment in each repeat is removed entirely
    clean = [1.0] * 5
    hit = [[c + (4.0 if i == r else 0.0) for i, c in enumerate(clean)] for r in range(2)]
    assert timing.filtered_seconds(hit) == sum(clean)


def test_filtered_seconds_of_one_repeat_is_its_sum():
    assert timing.filtered_seconds([[0.25, 0.5]]) == 0.75


def test_repeats_must_agree_on_segment_count():
    with pytest.raises(ValueError):
        timing.filtered_seconds([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        timing.filtered_seconds([])


def test_noisy_share_and_segment_spread():
    repeats = [[1.0, 1.0, 1.0, 1.0], [1.2, 1.6, 1.0, 3.0]]
    assert timing.noisy_share(repeats) == 0.5  # 1.6 and 3.0 exceed 1.5x
    assert timing.segment_spread(repeats) == pytest.approx((0.2 + 0.6) / 2)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_recorder_splits_setup_phases_from_stamped_segments():
    clock = FakeClock()
    regions = []
    rec = Recorder(3, clock=clock, on_region=regions.append)
    clock.now = 5.0  # imports and the like: before start(), not timed
    rec.start()
    clock.now = 6.0
    rec.phase("generate")
    clock.now = 8.5
    rec.phase("build")
    clock.now = 9.0
    rec.stamp()  # stamp 0: the first event dispatched ends set-up
    clock.now = 10.0
    rec.stamp()
    clock.now = 12.0
    rec.stamp()
    clock.now = 15.0
    rec.end()
    assert rec.setup == [("generate", 1.0), ("build", 2.5), ("schedule", 0.5)]
    assert rec.segments == [1.0, 2.0, 3.0]
    assert regions == [True, False]
    # a second replay in the same run (paper4-edc) appends to both lists
    clock.now = 20.0
    rec.start()
    clock.now = 21.0
    rec.phase("generate")
    rec.stamp()
    clock.now = 22.0
    rec.end()
    assert rec.setup[-2:] == [("generate", 1.0), ("schedule", 0.0)]
    assert rec.segments == [1.0, 2.0, 3.0, 1.0]
