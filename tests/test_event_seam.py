"""The device stack's one event seam (:mod:`repro.sim.events`).

Two properties every observer used to re-prove with its own null object
and bind-order convention are structural now, and tested once here:
attaching observers in any order gives the same dumps, and a stack
nothing subscribed to is identical to an observed one.
"""

import ast
import gc
import hashlib
import io
import itertools
import pathlib
import re
import weakref

import pytest

from repro.bench.cluster import tenant_roster
from repro.bench.experiments import ReplayConfig, replay
from repro.cluster import ClusterReplayConfig, ClusterReplayer, build_cluster
from repro.faults import FaultPlan
from repro.flash.introspect import (
    ftls_of,
    members_of,
    smart_snapshot,
    space_waterfall,
)
from repro.sim.engine import Simulator
from repro.sim.events import VOCABULARY, Emitter
from repro.telemetry import (
    DecisionAuditor,
    DeviceHealth,
    Telemetry,
    TimeSeriesSampler,
    dump_audit_jsonl,
    dump_health_json,
    dump_jsonl,
    dump_timeseries_jsonl,
    parse_shadow_spec,
    render_exposition,
)
from repro.traces.multitenant import make_tenant_streams
from repro.traces.workloads import make_workload

REPO = pathlib.Path(__file__).resolve().parent.parent

#: (trace, scheme, config, program-fault plan): a GC-heavy Native slice
#: and a Fin1 x EDC slice, both small enough to replay 24 times.
SLICES = {
    "native-gc": (
        make_workload("Prxy_0", max_requests=2000), "Native",
        ReplayConfig(capacity_mb=4, fold_fraction=0.4, pool_blocks=32),
        FaultPlan(seed=7, program_fault_prob=0.004),
    ),
    "fin1-edc": (
        make_workload("Fin1", max_requests=600), "EDC",
        ReplayConfig(capacity_mb=2, fold_fraction=0.6, pool_blocks=32),
        FaultPlan(seed=7, program_fault_prob=0.01),
    ),
}


def _text(dump, *args) -> str:
    fp = io.StringIO()
    dump(*args, fp)
    return fp.getvalue()


def _stack_digests(device, backend):
    return (
        device.mapping.state_digest(),
        device.allocator.state_digest(),
        tuple(ftl.validity_digest() for ftl in ftls_of(backend)),
    )


# ----------------------------------------------------------------------
# (a) attach order does not matter
# ----------------------------------------------------------------------
def _replay_attached_in(order, slice_name):
    trace, scheme, cfg, plan = SLICES[slice_name]
    kit = {}

    def on_built(sim, device, backend, devices):
        kit.update(device=device, backend=backend)
        for role in order:
            if role == "faults":
                plan.arm(sim, backend)
            elif role == "telemetry":
                kit[role] = Telemetry(sim)
            elif role == "auditor":
                kit[role] = DecisionAuditor()
            elif role == "sampler":
                kit[role] = TimeSeriesSampler(interval=0.05)
                kit[role].attach(sim, device)
                kit[role].start()
            else:
                kit[role] = DeviceHealth()
            if role in kit and role != "sampler":
                kit[role].bind_device(device)

    replay(trace, scheme, cfg, on_built=on_built)
    sampler = kit.get("sampler")
    return kit["health"].episodes_total, (
        _text(dump_jsonl, kit["telemetry"].tracer),
        _text(dump_audit_jsonl, kit["auditor"]),
        _text(dump_health_json, kit["health"]),
        _stack_digests(kit["device"], kit["backend"]),
    ) + ((
        _text(dump_timeseries_jsonl, sampler),
        render_exposition(sampler=sampler),
    ) if sampler is not None else ())


@pytest.mark.parametrize("slice_name", sorted(SLICES))
def test_attach_order_does_not_matter(slice_name):
    roles = ("telemetry", "auditor", "health", "faults")
    episodes, reference = _replay_attached_in(roles, slice_name)
    assert episodes > 0  # GC and retirement episodes were observed at all
    for order in itertools.permutations(roles):
        assert _replay_attached_in(order, slice_name) == (episodes, reference), order


@pytest.mark.parametrize("slice_name", sorted(SLICES))
def test_sampler_attach_order_does_not_matter(slice_name):
    """A sampler bound before the fault plan and the observers registers
    their families at its first tick: the same series, the same dumps."""
    roles = ("telemetry", "auditor", "health", "faults")
    orders = [
        others[:i] + ("sampler",) + others[i:]
        for others in (roles, roles[::-1])
        for i in range(len(roles) + 1)
    ]
    episodes, reference = _replay_attached_in(roles + ("sampler",), slice_name)
    for family in ("faults.", "trace.", "audit.", "smart.", "space.", "gc.episodes"):
        assert f'"series": "{family}' in reference[-2], family
    for order in orders:
        assert _replay_attached_in(order, slice_name) == (episodes, reference), order


# ----------------------------------------------------------------------
# (b) no subscriber => identical
# ----------------------------------------------------------------------
def _replay_observed_by(roles):
    observers = {
        role: make() for role, make in (
            ("telemetry", lambda: Telemetry(Simulator())),
            ("sampler", lambda: TimeSeriesSampler(interval=0.05)),
            ("auditor", lambda: DecisionAuditor(
                shadows=parse_shadow_spec("lzf,gzip"))),
            ("health", DeviceHealth),
        ) if role in roles
    }
    kit = {}
    result = replay(
        make_workload("Fin1", max_requests=600), "EDC",
        ReplayConfig(capacity_mb=2, fold_fraction=0.6, pool_blocks=32),
        on_built=lambda sim, device, backend, devices: kit.update(
            device=device, backend=backend),
        **observers,
    )
    device = kit["device"]
    return kit, (
        result,
        _stack_digests(device, kit["backend"]),
        device.write_latency.samples().tolist(),
        device.read_latency.samples().tolist(),
    )


@pytest.fixture(scope="module")
def unobserved():
    return _replay_observed_by(())


def test_unobserved_stack_has_no_subscribers(unobserved):
    kit, _ = unobserved
    device, backend = kit["device"], kit["backend"]
    assert device.observers == {}
    for emitter in (device.events, device.monitor.events, device.policy.events,
                    device.cpu.events, backend.events, backend.queue.events):
        assert not emitter.subs
    # the allocator's retirement accounting is part of the device itself
    assert {k: len(v) for k, v in backend.ftl.events.subs.items()} == {"retire": 1}


def test_unobserved_stack_is_freed_without_the_cycle_collector():
    """The always-on retirement subscription must not tie the backend to
    the device: a finished replay's content store (tens of MB of memoised
    payloads) would otherwise live until the next full collection."""
    refs = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        replay(
            make_workload("Fin1", max_requests=50), "Native",
            ReplayConfig(capacity_mb=2, pool_blocks=32),
            on_built=lambda sim, device, backend, devices: refs.extend(
                (weakref.ref(device), weakref.ref(device.content))),
        )
        assert [ref() for ref in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("roles", [
    ("telemetry",), ("sampler",), ("auditor",), ("health",),
    ("telemetry", "sampler", "auditor", "health"),
], ids="+".join)
def test_observers_do_not_perturb_the_replay(unobserved, roles):
    kit, observed = _replay_observed_by(roles)
    assert observed == unobserved[1]
    assert set(kit["device"].observers) == set(roles) - {"sampler"}


# ----------------------------------------------------------------------
# (c) the vocabulary is closed, declared once, documented and exercised
# ----------------------------------------------------------------------
def test_unknown_component_or_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown component"):
        Emitter("router")
    emitter = Emitter("ftl")
    with pytest.raises(ValueError, match="emits no 'select'"):
        emitter.subscribe("select", print)
    assert not emitter.subs


def test_every_declared_kind_is_emitted_with_its_declared_payload():
    trace, scheme, cfg, plan = SLICES["fin1-edc"]
    seen = {}

    def on_built(sim, device, backend, devices):
        plan.arm(sim, backend)
        ssd, = members_of(backend)
        emitters = {
            "device": device.events, "monitor": device.monitor.events,
            "policy": device.policy.events, "ftl": ssd.ftl.events,
            "ssd": ssd.events, "server": ssd.queue.events,
        }
        assert set(emitters) == set(VOCABULARY)
        for component, emitter in emitters.items():
            assert emitter.component == component
            for kind in VOCABULARY[component][1]:
                emitter.subscribe(
                    kind,
                    lambda *payload, key=(component, kind):
                        seen.setdefault(key, set()).add(len(payload)),
                )

    replay(trace, scheme, cfg, on_built=on_built)
    assert seen == {
        (component, kind): {len(payload)}
        for component, (_module, kinds) in VOCABULARY.items()
        for kind, payload in kinds.items()
    }


def test_api_doc_table_matches_the_declared_vocabulary():
    doc = (REPO / "docs" / "API.md").read_text(encoding="utf-8")
    section = doc.split("## Event seam", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for row in re.findall(r"^\| `(\w+)` \| `(\w+)` \| (.*?) \| `([\w.]+)` \|",
                          section, flags=re.M):
        component, kind, payload, module = row
        documented[(component, kind)] = (
            module, tuple(re.findall(r"`(\w+)`", payload)))
    assert documented == {
        (component, kind): (module, payload)
        for component, (module, kinds) in VOCABULARY.items()
        for kind, payload in kinds.items()
    }


def test_core_flash_and_the_router_do_not_import_telemetry():
    src = REPO / "src" / "repro"
    paths = sorted((src / "core").glob("*.py")) + sorted(
        (src / "flash").glob("*.py")) + [src / "cluster" / "routing.py"]
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.name}: {name}" for name in names
                if name.startswith("repro.telemetry")
            ]
    assert offenders == []


# ----------------------------------------------------------------------
# every evidence store is byte-identical to the pre-seam parent commit
# ----------------------------------------------------------------------
#: sha256 of each dump, recorded at commit bee7f31 (the last one with
#: single-slot hooks) for the replay below.  ``exposition`` was
#: re-recorded once, when Telemetry stopped copying the stack's counters:
#: its counter and gauge families were deleted, and no other line moved.
PARENT_SHA256 = {
    "spans": "79a898c551cfef75fdf88fc0c46f24b8aa3f1745499d9cb7c4f4d52495b9ff33",
    "audit": "7c8a67cabf65d6a9ba57bd9336002f97aa1182663a6f03ae2f53cf0b46b75e9b",
    "series": "dcbfdc2c4f3bd074e016239cc074cbd5484ff9a9a5f9c6b819287dfd1f0957c5",
    "health": "a98e3f156ce21013175e4981f83d8fb9afbce9d6a3c58ca3af7bc406188decdc",
    "exposition": "31f6cdef836cb853cd51098ffb4eddea4c108365c965928f5cd5ed459c3211f5",
}


def test_fully_observed_dumps_match_the_parent_commit():
    telemetry = Telemetry(Simulator())
    sampler = TimeSeriesSampler(interval=0.25)
    auditor = DecisionAuditor(shadows=parse_shadow_spec("lzf,gzip,native"))
    health = DeviceHealth()
    replay(
        make_workload("Fin1", max_requests=2000), "EDC",
        ReplayConfig(capacity_mb=4), telemetry=telemetry, sampler=sampler,
        auditor=auditor, health=health,
    )
    assert health.episodes_total == 26
    dumps = {
        "spans": _text(dump_jsonl, telemetry.tracer),
        "audit": _text(dump_audit_jsonl, auditor),
        "series": _text(dump_timeseries_jsonl, sampler),
        "health": _text(dump_health_json, health),
        "exposition": render_exposition(
            metrics=telemetry.metrics, sampler=sampler),
    }
    assert {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in dumps.items()
    } == PARENT_SHA256


# ----------------------------------------------------------------------
# retirement accounting holds on every build path
# ----------------------------------------------------------------------
def test_fleet_retirements_reach_the_allocator():
    """Only ``replay()`` used to wire ``ftl.on_retire`` into the allocator;
    a fleet under program faults reported SMART retired bytes the space
    waterfall never saw."""
    specs = tenant_roster(4)
    fleet = build_cluster(specs, ClusterReplayConfig(
        n_shards=2, capacity_mb=64, scheme="Native", replication_factor=2,
        fault_plan=FaultPlan(seed=7, program_fault_prob=0.02),
    ))
    replayer = ClusterReplayer(fleet)
    for stream in make_tenant_streams(
            [s.name for s in specs], max_requests=300, seed=7):
        replayer.schedule(stream.tenant, stream.trace)
    replayer.run()
    retired = 0
    for name, device in fleet.devices.items():
        ftl = fleet.backends[name].ftl
        retired += ftl.retired_blocks
        expected = ftl.retired_blocks * ftl.geometry.block_bytes
        assert device.allocator.stats.retired_bytes == expected
        waterfall = space_waterfall(device)
        waterfall.verify()
        smart = smart_snapshot(device, fleet.sim.now)
        assert smart.retired_bytes == waterfall.retired_bytes == expected
    assert retired > 0
