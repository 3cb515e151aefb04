"""Multi-tenant interleaved trace generation.

The cluster tier serves many tenants at once; its exhibits need a
workload where distinct tenants with distinct personalities (read-heavy
vs. write-heavy, bursty vs. steady) overlap on one clock.  Each tenant
gets its own :class:`~repro.traces.synthetic.SyntheticTraceGenerator`
with a tenant-specific seed, cycling through the canned Table II
workload personalities, so the interleaved load is fully reproducible
and any single tenant's stream is independent of how many neighbours it
has (adding a tenant never perturbs another tenant's trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.traces.model import Trace
from repro.traces.synthetic import SyntheticTraceGenerator
from repro.traces.workloads import WORKLOADS

__all__ = ["TenantStream", "make_tenant_streams"]


@dataclass(frozen=True)
class TenantStream:
    """One tenant's private request stream (tenant-local addresses)."""

    tenant: str
    workload: str
    trace: Trace


def make_tenant_streams(
    tenants: Sequence[str],
    max_requests: int = 2_000,
    duration: Optional[float] = None,
    workloads: Optional[Sequence[str]] = None,
    seed: int = 42,
) -> List[TenantStream]:
    """One reproducible stream per tenant, personalities cycled.

    ``workloads`` names the personality rotation (defaults to the
    canned Table II set in name order); tenant ``i`` runs personality
    ``workloads[i % len(workloads)]`` with seed ``seed + i``.
    """
    if not tenants:
        raise ValueError("at least one tenant name is required")
    if len(set(tenants)) != len(tenants):
        raise ValueError(f"duplicate tenant names: {list(tenants)}")
    names = list(workloads) if workloads is not None else sorted(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            raise KeyError(
                f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
            )
    streams: List[TenantStream] = []
    for i, tenant in enumerate(tenants):
        wl = names[i % len(names)]
        trace = SyntheticTraceGenerator(
            WORKLOADS[wl], seed=seed + i
        ).generate(duration=duration, max_requests=max_requests)
        streams.append(
            TenantStream(
                tenant=tenant,
                workload=wl,
                trace=Trace(f"{tenant}:{trace.name}", trace.requests),
            )
        )
    return streams
