"""Span self time with nesting and handed-over callbacks."""

import pytest

import spans
from spans import SELF_S, SPANS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


@pytest.fixture
def traced():
    clock = FakeClock()
    return spans.Tracer(clock=clock), clock


def test_self_time_is_duration_minus_child_spans(traced):
    tracer, clock = traced

    def leaf():
        clock.tick(2.0)

    leaf = spans.wrap(tracer, leaf, "flash", "leaf")

    def same_layer_helper():
        clock.tick(0.5)
        leaf()

    same_layer_helper = spans.wrap(tracer, same_layer_helper, "core", "helper")

    def outer():
        clock.tick(1.0)
        same_layer_helper()  # core -> core: no span of its own
        leaf()
        clock.tick(0.25)

    outer = spans.wrap(tracer, outer, "core", "outer")
    outer()

    acc = tracer.entries
    assert acc[("core", "outer")] == [1, 1, 1.75, 5.75]
    assert acc[("core", "helper")][:2] == [1, 0]  # called, but never a boundary
    assert acc[("flash", "leaf")] == [2, 2, 4.0, 4.0]
    layers = spans.by_layer(tracer.snapshot())
    assert layers["core"] == {"self_s": 1.75, "calls": 1}
    assert layers["flash"] == {"self_s": 4.0, "calls": 2}
    # the root span is the harness: it accounts for everything else
    assert sum(v["self_s"] for v in layers.values()) == clock.now


def test_span_closes_when_the_callee_raises(traced):
    tracer, clock = traced

    def boom():
        clock.tick(1.0)
        raise KeyError("x")

    boom = spans.wrap(tracer, boom, "flash", "boom")
    with pytest.raises(KeyError):
        boom()
    assert len(tracer.stack) == 1
    assert tracer.entries[("flash", "boom")][SELF_S] == 1.0


def _engine(tracer, clock):
    """A two-function event engine wrapped the way ``Simulator`` is."""
    queue = []

    def schedule(self, delay, action, daemon=False):
        clock.tick(0.1)
        queue.append(action)

    def step(self):
        clock.tick(0.2)
        queue.pop(0)()

    return (
        spans.wrap(tracer, schedule, "sim", "Simulator.schedule"),
        spans.wrap(tracer, step, "sim", "Simulator.step"),
    )


def test_handed_over_callback_is_charged_to_the_layer_that_handed_it_over(traced):
    tracer, clock = traced
    schedule, step = _engine(tracer, clock)
    done = []

    def submit(request):
        clock.tick(1.0)

        def _device_done():
            clock.tick(3.0)
            done.append(tracer.request)

        schedule(None, 0.0, _device_done)

    submit = spans.wrap(tracer, submit, "core", "EDCBlockDevice.submit")
    tracer.sampled.update({0, 1})
    submit("first")
    submit("second")
    assert tracer.request is None
    step(None)
    step(None)

    # each continuation ran under the request that scheduled it
    assert done == [0, 1]
    layers = spans.by_layer(tracer.snapshot())
    assert layers["sim"]["self_s"] == pytest.approx(2 * 0.1 + 2 * 0.2)
    assert layers["core"]["self_s"] == pytest.approx(2 * 1.0 + 2 * 3.0)
    callback = [s for s in tracer.raw if s["entry"].endswith("_device_done")]
    scheduling = [s for s in tracer.raw if s["entry"] == "Simulator.schedule"]
    assert [s["layer"] for s in callback] == ["core", "core"]
    assert [s["request"] for s in callback] == [0, 1]
    # the causal parent is the span that handed the callback over
    assert [s["parent"] for s in callback] == [s["parent"] for s in scheduling]
    assert [s["self_s"] for s in callback] == pytest.approx([3.0, 3.0])


def test_callback_scheduled_from_inside_the_engine_is_left_alone(traced):
    tracer, clock = traced
    schedule, step = _engine(tracer, clock)
    fired = []

    def server_finish():
        fired.append(True)

    def server_submit():
        schedule(None, 0.0, server_finish)  # sim -> sim: not a hand-over

    server_submit = spans.wrap(tracer, server_submit, "sim", "Server.try_start")
    server_submit()
    step(None)
    assert fired == [True]
    assert not [key for key in tracer.entries if "server_finish" in key[1]]


def test_nested_root_keeps_the_outer_request(traced):
    tracer, clock = traced
    seen = []

    def device_submit(req):
        seen.append(tracer.request)

    device_submit = spans.wrap(tracer, device_submit, "core", "EDCBlockDevice.submit")

    def cluster_submit(req):
        device_submit(req)
        device_submit(req)

    cluster_submit = spans.wrap(tracer, cluster_submit, "cluster", "ClusterDistributer.submit")
    cluster_submit("a")
    device_submit("b")
    assert seen == [0, 0, 1]
    assert tracer.requests_seen == 2


def test_snapshot_delta_accounts_exactly_for_the_interval(traced):
    tracer, clock = traced
    marks = []

    def inner():
        clock.tick(1.0)
        marks.append(tracer.snapshot())  # taken with two spans open
        clock.tick(2.0)

    inner = spans.wrap(tracer, inner, "flash", "inner")

    def outer():
        clock.tick(4.0)
        inner()
        clock.tick(8.0)

    outer = spans.wrap(tracer, outer, "core", "outer")
    outer()
    part = spans.by_layer(spans.delta(tracer.snapshot(), marks[0]))
    assert part["flash"]["self_s"] == 2.0
    assert part["core"]["self_s"] == 8.0
    assert sum(v["self_s"] for v in part.values()) == clock.now - 5.0


def test_reset_forgets_totals_but_keeps_wrappers(traced):
    tracer, clock = traced

    def work():
        clock.tick(1.0)

    work = spans.wrap(tracer, work, "core", "work")
    work()
    tracer.reset(seed=3)
    assert tracer.entries[("core", "work")] == [0, 0, 0.0, 0.0]
    work()
    assert tracer.entries[("core", "work")] == [1, 1, 1.0, 1.0]


def test_install_wraps_public_entry_points_and_prune_restores_the_rest():
    from repro.core.device import EDCBlockDevice
    from repro.flash import introspect
    from repro.sim.engine import Simulator
    from repro.telemetry import devhealth

    originals = (EDCBlockDevice.submit, Simulator.step, introspect.space_waterfall)
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        entries = {entry for entry, _acc, _undo in patches}
        assert {"EDCBlockDevice.submit", "Simulator.schedule_at", "space_waterfall",
                "LZFCodec.compress", "ContentStore.__init__"} <= entries
        assert not any(e.split(".")[-1].startswith("_") and not e.endswith("__init__")
                       for e in entries)
        assert EDCBlockDevice.submit is not originals[0]
        # a function imported by name elsewhere is rebound there too
        assert devhealth.space_waterfall is introspect.space_waterfall
        assert introspect.space_waterfall is not originals[2]
        assert spans.layer_of(introspect.space_waterfall) == "introspect"

        Simulator().schedule(0.0, lambda: None)  # host -> sim: a boundary
        removed = spans.prune(patches)
        assert removed > 0
        assert Simulator.step is originals[1]  # never called: unwrapped
        assert EDCBlockDevice.submit is not originals[0]  # a root: kept
        assert tracer.entries[("sim", "Simulator.schedule")][SPANS] == 1
    finally:
        for _entry, _acc, undo in patches:
            undo()
    assert (EDCBlockDevice.submit, Simulator.step, introspect.space_waterfall) == originals
    assert devhealth.space_waterfall is originals[2]
