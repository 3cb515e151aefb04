"""Boundary spans recorded from outside the program.

``install`` wraps the public callables every layer exports in its
``__all__`` (functions, and the public methods plus ``__init__`` of
classes).  A wrapper opens a span only when its layer differs from the
layer on top of the span stack, so a span marks a layer *boundary* and a
call inside a layer costs one comparison.  A callback handed to the
event engine (``Simulator.schedule/schedule_at/defer/every``,
``Server.submit``) is charged to the layer that handed it over, and it
inherits that layer's current request, so a continuation such as
``_device_done`` is booked as ``core`` and not as ``sim``.

Totals are kept for every span; raw spans are kept only for a seeded
sample of requests.  Self time is a span's duration minus the part its
child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: layer name -> module whose ``__all__`` names its entry points
LAYER_MODULES = {
    "traces": "repro.traces",
    "sdgen": "repro.sdgen",
    "compression": "repro.compression",
    "core": "repro.core",
    "flash": "repro.flash",
    "introspect": "repro.flash.introspect",
    "sim": "repro.sim",
    "telemetry": "repro.telemetry",
    "cluster": "repro.cluster",
}
#: the harness itself, and every repro package that is not a layer above
ROOT_LAYER = "host"
LAYERS = (ROOT_LAYER,) + tuple(LAYER_MODULES)
#: wrappers compare layers by identity, so every layer name is one object
_CANONICAL = {name: name for name in LAYERS}

#: requests enter the stack here; each call starts a new request id
#: unless it is nested in one (a shard part of a cluster request)
ROOT_ENTRIES = ("EDCBlockDevice.submit", "ClusterDistributer.submit")

#: entry point -> index of the callback argument it hands to the engine
HANDOVER_ENTRIES = {
    "Simulator.schedule": 2,
    "Simulator.schedule_at": 2,
    "Simulator.defer": 1,
    "Simulator.every": 2,
    "Server.submit": 2,
}
_HANDOVER_KEYWORD = {"Server.submit": "on_complete"}

#: entry points whose call count is a per-layer metric
COUNTED_ENTRIES = (
    "CompressionEngine.plan_write", "Simulator.schedule_at",
    "space_waterfall", "smart_snapshot", "ContentStore.__init__",
)
#: never pruned: the tracer's own attribution depends on them
KEPT_ENTRIES = frozenset(COUNTED_ENTRIES + ROOT_ENTRIES + tuple(HANDOVER_ENTRIES))
#: a span costs 1-2 us; around a call shorter than this (a dict lookup such
#: as ``MappingTable.get``, 370 k times per ``read-observed`` run) it would
#: record mostly itself
MIN_SPAN_S = 1e-6

MAX_RAW_SPANS = 50_000

# frame slots
_LAYER, _ENTRY, _START, _CHILD, _ID, _PARENT, _REQ = range(7)
# accumulator slots: every call, spans opened, self seconds, inclusive seconds
CALLS, SPANS, SELF_S, TOTAL_S = range(4)


def layer_of(obj) -> Optional[str]:
    """The layer a repro object belongs to, or ``None`` (not traced)."""
    module = getattr(obj, "__module__", None) or ""
    if module == "repro.flash.introspect":
        return _CANONICAL["introspect"]
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYER_MODULES:
        return _CANONICAL[parts[1]]
    return None


class Tracer:
    """Span stack, per-entry-point totals and the raw span sample."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        sample_every: int = 1,
        seed: int = 0,
    ) -> None:
        self.clock = clock
        self.entries: Dict[Tuple[str, str], List[float]] = {}
        root_acc = self.accumulator(ROOT_LAYER, "run")
        root_acc[CALLS] += 1
        root_acc[SPANS] += 1
        self.spans_opened = 0
        self.stack: List[list] = [[ROOT_LAYER, "run", clock(), 0.0, 0, None, None]]
        self.request: Optional[int] = None
        self.requests_seen = 0
        self.sample_every = max(1, sample_every)
        self._rng = random.Random(seed)
        self.sampled: set = set()
        self.raw: List[dict] = []
        #: measure name -> running count, fed by ``measure`` hooks
        self.counts: Dict[str, int] = {}

    def reset(self, seed: int) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        if len(self.stack) != 1:
            raise RuntimeError("reset with spans open")
        for acc in self.entries.values():
            acc[:] = [0, 0, 0.0, 0.0]
        root = self.stack[0]
        root[_START], root[_CHILD] = self.clock(), 0.0
        root_acc = self.entries[(ROOT_LAYER, "run")]
        root_acc[CALLS] = root_acc[SPANS] = 1
        self.requests_seen = 0
        self._rng = random.Random(seed)
        self.sampled.clear()
        self.raw.clear()
        self.counts.clear()

    def accumulator(self, layer: str, entry: str) -> List[float]:
        key = (layer, entry)
        acc = self.entries.get(key)
        if acc is None:
            acc = self.entries[key] = [0, 0, 0.0, 0.0]
        return acc

    def begin_request(self) -> int:
        req = self.requests_seen
        self.requests_seen += 1
        if self._rng.randrange(self.sample_every) == 0:
            self.sampled.add(req)
        self.request = req
        return req

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[Tuple[str, str], Tuple[float, ...]]:
        """Totals as if every open span closed now (nothing is mutated).

        The difference of two snapshots is the exact account of the
        interval between them: its self times sum to the interval.
        """
        now = self.clock()
        totals = {key: list(acc) for key, acc in self.entries.items()}
        stack = self.stack
        for i, frame in enumerate(stack):
            open_child = now - stack[i + 1][_START] if i + 1 < len(stack) else 0.0
            dur = now - frame[_START]
            acc = totals[(frame[_LAYER], frame[_ENTRY])]
            acc[SELF_S] += dur - frame[_CHILD] - open_child
            acc[TOTAL_S] += dur
        return {key: tuple(acc) for key, acc in totals.items()}

    def dump_raw(self, path: str) -> int:
        """Write the sampled raw spans as JSON lines; returns the count."""
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.raw:
                fp.write(json.dumps(span) + "\n")
        return len(self.raw)


def delta(after: Dict, before: Dict) -> Dict[Tuple[str, str], Tuple[float, ...]]:
    """Per-entry difference of two :meth:`Tracer.snapshot` results."""
    zero = (0, 0, 0.0, 0.0)
    return {
        key: tuple(a - b for a, b in zip(vals, before.get(key, zero)))
        for key, vals in after.items()
    }


def add(total: Dict, part: Dict) -> None:
    """Accumulate ``part`` (a :func:`delta`) into ``total`` in place."""
    for key, vals in part.items():
        have = total.get(key)
        total[key] = vals if have is None else tuple(a + b for a, b in zip(have, vals))


def by_layer(totals: Dict) -> Dict[str, Dict[str, float]]:
    """Fold per-entry totals into ``{layer: {self_s, calls}}``."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (layer, _entry), vals in totals.items():
        out[layer]["self_s"] += vals[SELF_S]
        out[layer]["calls"] += vals[SPANS]
    return out


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def _spanned(
    tracer: Tracer, fn: Callable, layer: str, entry: str, cause: Optional[int] = None
) -> Callable:
    """``fn``, with a span around every call that comes from another layer.

    This is the hot path of a traced run (forwarding a call costs about
    as much as the span), hence the flat code and the local names.
    ``cause`` overrides the span's parent for a handed-over callback.
    """
    acc = tracer.accumulator(layer, entry)
    stack, clock, sampled, raw = tracer.stack, tracer.clock, tracer.sampled, tracer.raw

    def call(*args, **kwargs):
        acc[CALLS] += 1
        top = stack[-1]
        if top[_LAYER] is layer:
            return fn(*args, **kwargs) if kwargs else fn(*args)
        tracer.spans_opened = span_id = tracer.spans_opened + 1
        acc[SPANS] += 1
        frame = [layer, entry, 0.0, 0.0, span_id,
                 top[_ID] if cause is None else cause, tracer.request]
        stack.append(frame)
        start = frame[_START] = clock()
        try:
            return fn(*args, **kwargs) if kwargs else fn(*args)
        finally:
            end = clock()
            stack.pop()
            dur = end - start
            top[_CHILD] += dur
            self_s = dur - frame[_CHILD]
            acc[SELF_S] += self_s
            acc[TOTAL_S] += dur
            req = frame[_REQ]
            if req is not None and req in sampled and len(raw) < MAX_RAW_SPANS:
                raw.append({
                    "id": span_id, "parent": frame[_PARENT], "layer": layer,
                    "entry": entry, "start": start, "end": end,
                    "self_s": self_s, "request": req,
                })

    return call


def _handed_over(tracer: Tracer, action: Callable, layer: str) -> Callable:
    """Charge ``action`` to ``layer`` and to the request current now."""
    entry = getattr(action, "__qualname__", None) or type(action).__name__
    call = _spanned(tracer, action, layer, entry, cause=tracer.stack[-1][_ID])
    request = tracer.request

    def callback(*args, **kwargs):
        saved = tracer.request
        tracer.request = request
        try:
            return call(*args, **kwargs)
        finally:
            tracer.request = saved

    return callback


def _handing_over(tracer: Tracer, call: Callable, layer: str, entry: str) -> Callable:
    """``call``, with the callback argument charged to the calling layer."""
    index = HANDOVER_ENTRIES[entry]
    keyword = _HANDOVER_KEYWORD.get(entry, "action")
    stack = tracer.stack

    def hand_over(*args, **kwargs):
        caller = stack[-1][_LAYER]
        if caller is not layer:
            if len(args) > index:
                if args[index] is not None:
                    args = list(args)
                    args[index] = _handed_over(tracer, args[index], caller)
            elif kwargs.get(keyword) is not None:
                kwargs[keyword] = _handed_over(tracer, kwargs[keyword], caller)
        return call(*args, **kwargs)

    return hand_over


def _request_root(tracer: Tracer, call: Callable, layer: str) -> Callable:
    """``call``, starting a new request unless it is nested in one."""
    stack = tracer.stack

    def root(*args, **kwargs):
        if tracer.request is not None:
            return call(*args, **kwargs)
        request = tracer.begin_request()
        top = stack[-1]
        if top[_LAYER] is layer and top[_REQ] is None:
            top[_REQ] = request  # no span of its own: the caller's carries the id
        try:
            return call(*args, **kwargs)
        finally:
            tracer.request = None

    return root


def _measured(tracer: Tracer, call: Callable, measure: Callable) -> Callable:
    def counted(*args, **kwargs):
        result = call(*args, **kwargs)
        measure(tracer.counts, args, result)
        return result

    return counted


def wrap(tracer: Tracer, fn: Callable, layer: str, entry: str) -> Callable:
    """Wrap ``fn`` as entry point ``entry`` of ``layer``."""
    call = _spanned(tracer, fn, layer, entry)
    if entry in HANDOVER_ENTRIES:
        call = _handing_over(tracer, call, layer, entry)
    if entry in ROOT_ENTRIES:
        call = _request_root(tracer, call, layer)
    measure = _measure_for(entry)
    if measure is not None:
        call = _measured(tracer, call, measure)
    wrapper = functools.wraps(fn)(call)
    wrapper.__perf_wrapped__ = True
    return wrapper


def _count_bytes(prefix: str):
    def measure(counts, args, result):
        counts[prefix + "calls"] = counts.get(prefix + "calls", 0) + 1
        counts[prefix + "bytes_in"] = counts.get(prefix + "bytes_in", 0) + len(args[1])
        counts[prefix + "bytes_out"] = counts.get(prefix + "bytes_out", 0) + len(result)
    return measure


def _count_assembled(counts, args, result):
    counts["sdgen.bytes_assembled"] = counts.get("sdgen.bytes_assembled", 0) + len(result)


def _measure_for(entry: str) -> Optional[Callable]:
    """Counts taken at the entry point, where the work happens."""
    if entry.endswith("Codec.compress") and entry != "NullCodec.compress":
        return _count_bytes("compress.")
    if entry == "ContentStore.data_for_run":
        return _count_assembled
    return None


def _rebind_function(original, replacement) -> None:
    """Replace every ``repro.*`` module global that is ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


#: one installed wrapper: (entry, its accumulator, how to take it off again)
Patch = Tuple[str, List[float], Callable[[], None]]


def install(tracer: Tracer) -> List[Patch]:
    """Wrap every layer's exported public callables."""
    patches: List[Patch] = []
    for modname in LAYER_MODULES.values():
        module = importlib.import_module(modname)
        for name in module.__all__:
            obj = getattr(module, name)
            layer = layer_of(obj)
            if layer is None or name.startswith("_"):
                continue
            if inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    if not inspect.isfunction(fn) or getattr(fn, "__perf_wrapped__", False):
                        continue
                    if attr == "__init__":
                        if dataclasses.is_dataclass(obj):
                            continue  # records, not calls into the layer
                    elif attr.startswith("_"):
                        continue
                    entry = f"{obj.__name__}.{attr}"
                    setattr(obj, attr, wrap(tracer, fn, layer, entry))
                    patches.append((
                        entry, tracer.accumulator(layer, entry),
                        functools.partial(setattr, obj, attr, fn),
                    ))
            elif inspect.isfunction(obj) and not getattr(obj, "__perf_wrapped__", False):
                wrapped = wrap(tracer, obj, layer, name)
                _rebind_function(obj, wrapped)
                patches.append((
                    name, tracer.accumulator(layer, name),
                    functools.partial(_rebind_function, wrapped, obj),
                ))
    return patches


def prune(patches: List[Patch]) -> int:
    """Take off the wrappers that cost more than they tell; returns how many.

    Forwarding a call costs about as much as the span itself, and most
    public methods are only ever called from inside their own layer.
    After a discovery run at smoke size, an entry point stays wrapped
    only if some other layer called it and those calls averaged at least
    ``MIN_SPAN_S`` (what the tracer depends on always stays: roots,
    hand-over points, counted and measured entries).  The time of an unwrapped
    accessor is booked to the layer that calls it.
    """
    removed = 0
    for entry, acc, undo in patches:
        if entry in KEPT_ENTRIES or _measure_for(entry) is not None:
            continue
        if acc[SPANS] == 0 or acc[TOTAL_S] / acc[SPANS] < MIN_SPAN_S:
            undo()
            removed += 1
    return removed
