"""The event engine against the one it replaced.

``tests/reference_engine.py`` is the oracle: the engine as it stood
when every heap entry was a dataclass and a trace was one
``schedule_at`` per request.  A random program runs on both, in
lockstep, and after every step the two must have dispatched the same
``(label, now)`` sequence and agree on ``dispatched``, ``pending`` and
``pending_foreground``.  Programs are biased towards what separates the
two: timestamps on a coarse grid (ties everywhere), daemon events,
``defer`` and ``every``, cancels before and after dispatch, ``run``
stopped part-way through a stream, and one to three arrival streams
registered among the other events.
"""

from collections import namedtuple

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from tests.reference_engine import Simulator as ReferenceSimulator

#: every time is a multiple of this, so ties are common and sums exact
TICK = 0.25

Item = namedtuple("Item", "time label spawn")

#: an event's action, when it fires: log it, maybe schedule a child
_spawn = st.one_of(st.none(), st.integers(0, 3))

ops = st.one_of(
    st.tuples(st.just("at"), st.integers(0, 6), st.booleans(), _spawn),
    st.tuples(st.just("defer"), _spawn),
    st.tuples(st.just("every"), st.integers(1, 4), st.booleans(), st.integers(1, 4)),
    st.tuples(st.just("arrivals"), st.integers(0, 3),
              st.lists(st.tuples(st.sampled_from((0, 0, 1, 2)), _spawn),
                       min_size=1, max_size=12)),
    st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
    st.tuples(st.just("cancel_every"), st.integers(0, 1 << 16)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), st.integers(0, 12)),
)

#: at most this many streams per program
MAX_STREAMS = 3


class Program:
    """Applies the same operations to one engine and logs what fires."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.log = []
        self.handles = []
        self.periodic = []
        self.returns = []
        self._labels = 0

    def _label(self) -> int:
        self._labels += 1
        return self._labels

    def _action(self, label, spawn):
        def fire():
            self.log.append((label, self.sim.now))
            if spawn is not None:
                self.handles.append(
                    self.sim.schedule(spawn * TICK, self._action((label, "child"), None)))
        return fire

    def _submit(self, item) -> None:
        self._action(item.label, item.spawn)()

    def apply(self, op, eager: bool) -> None:
        sim, kind = self.sim, op[0]
        if kind == "at":
            _, k, daemon, spawn = op
            self.handles.append(sim.schedule_at(
                sim.now + k * TICK, self._action(self._label(), spawn), daemon=daemon))
        elif kind == "defer":
            self.handles.append(sim.defer(self._action(self._label(), op[1])))
        elif kind == "every":
            _, k, daemon, limit = op
            label = self._label()
            box = []

            def tick():
                self.log.append((label, sim.now))
                if box[0].fired >= limit:
                    box[0].cancel()

            box.append(sim.every(k * TICK, tick, daemon=daemon))
            self.periodic.append(box[0])
        elif kind == "arrivals":
            _, start, gaps = op
            t, items = sim.now + start * TICK, []
            for gap, spawn in gaps:
                t += gap * TICK
                items.append(Item(t, self._label(), spawn))
            if eager:  # how replayers registered a trace before arrivals()
                for item in items:
                    sim.schedule_at(item.time, lambda i=item: self._submit(i))
            else:
                sim.arrivals(items, self._submit)
        elif kind == "cancel":
            if self.handles:
                self.returns.append(sim.cancel(self.handles[op[1] % len(self.handles)]))
        elif kind == "cancel_every":
            if self.periodic:
                self.periodic[op[1] % len(self.periodic)].cancel()
        elif kind == "step":
            self.returns.append(sim.step())
        elif kind == "run_until":
            # odd values stop between two grid points, mid-way through a stream
            sim.run(until=sim.now + op[1] * TICK / 2)
        elif kind == "run":
            sim.run()
        else:  # pragma: no cover - the strategy draws only the kinds above
            raise AssertionError(kind)

    def state(self):
        sim = self.sim
        return (list(self.log), list(self.returns), sim.now,
                sim.dispatched, sim.pending, sim.pending_foreground)


def _streams_capped(program):
    n = 0
    for op in program:
        n += op[0] == "arrivals"
        if n > MAX_STREAMS:
            return False
    return True


@given(st.lists(ops, min_size=1, max_size=40).filter(_streams_capped))
@settings(max_examples=400, deadline=None)
def test_same_dispatch_sequence_as_the_reference_engine(program):
    new, ref = Program(Simulator()), Program(ReferenceSimulator())
    for op in list(program) + [("run",)]:
        new.apply(op, eager=False)
        ref.apply(op, eager=True)
        assert new.state() == ref.state(), op


def test_a_typical_program_exercises_every_operation():
    """A fixed program, so a strategy change cannot quietly drop a case."""
    program = [
        ("at", 2, False, 1), ("every", 1, True, 4), ("defer", None),
        ("arrivals", 0, [(0, None), (0, 2), (1, None), (2, None)]),
        ("at", 0, True, None), ("run_until", 1), ("cancel", 0),
        ("arrivals", 1, [(0, None), (1, 0)]), ("step",), ("cancel", 1),
        ("every", 3, False, 2), ("run_until", 5), ("cancel_every", 0),
        ("arrivals", 0, [(1, None)] * 5), ("at", 1, False, None),
    ]
    new, ref = Program(Simulator()), Program(ReferenceSimulator())
    for op in program + [("run",)]:
        new.apply(op, eager=False)
        ref.apply(op, eager=True)
        assert new.state() == ref.state(), op
    assert len(new.log) >= 20 and new.sim.pending_foreground == 0
    assert new.returns == [True, True, False]  # cancel, step, cancel after dispatch
