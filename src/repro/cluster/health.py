"""Sim-clock shard health monitoring: probe, suspect, declare dead.

Failure *detection* is deliberately separate from failure *handling*:
the :class:`HealthMonitor` only observes (a periodic heartbeat probe of
each shard's storage backend) and runs a tiny per-shard state machine —

    ``alive`` --miss x SUSPECT_AFTER--> ``suspect``
    ``suspect`` --miss x DEAD_AFTER (consecutive, total)--> ``dead``
    ``suspect`` --successful probe--> ``alive``

— before invoking its ``on_dead`` callback exactly once per shard.  The
:class:`~repro.cluster.replication.ReplicationManager` wires that
callback to its decommission + re-replication path, so detection
latency (``PROBE_INTERVAL_S * DEAD_AFTER`` in the worst case) is an
explicit part of the recovery story rather than an implementation
accident.

Probes ride the simulator's daemon periodic events: they tick while
foreground work exists but never keep the simulation alive on their
own, so a fault-free run terminates exactly as before.  The monitor
schedules nothing else and touches no device state — with no failures
it is purely observational.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.sim.engine import PeriodicEvent, Simulator

__all__ = ["ShardHealth", "HealthMonitor"]

#: heartbeat probe period (seconds)
PROBE_INTERVAL_S = 2e-3
#: consecutive missed probes before a shard is suspected ...
SUSPECT_AFTER = 1
#: ... and before it is declared dead
DEAD_AFTER = 3


@dataclass
class ShardHealth:
    """One shard's view in the health state machine."""

    name: str
    state: str = "alive"  # alive -> suspect -> dead
    #: consecutive failed probes
    misses: int = 0
    probes: int = 0
    suspected_at: Optional[float] = None
    declared_dead_at: Optional[float] = None


class HealthMonitor:
    """Heartbeat prober over the fleet's shard devices.

    ``devices`` maps shard name to its
    :class:`~repro.core.device.EDCBlockDevice`; a probe succeeds iff the
    device's storage backend is not failed.  :data:`SUSPECT_AFTER` and
    :data:`DEAD_AFTER` count *consecutive* misses; one successful probe
    resets the count and clears suspicion.  Death is terminal and
    reported once.
    """

    def __init__(
        self,
        sim: Simulator,
        devices: Mapping[str, object],
        on_dead: Optional[Callable[[str], None]] = None,
    ) -> None:
        if not devices:
            raise ValueError("health monitor needs at least one shard")
        self.sim = sim
        self.devices = dict(devices)
        self.on_dead = on_dead
        self.health: Dict[str, ShardHealth] = {
            name: ShardHealth(name) for name in self.devices
        }
        self._event: Optional[PeriodicEvent] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin probing (first probe one interval from now).  Idempotent."""
        if self._event is None:
            self._event = self.sim.every(PROBE_INTERVAL_S, self._probe)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    # ------------------------------------------------------------------
    def _probe(self) -> None:
        now = self.sim.now
        for name, h in self.health.items():
            if h.state == "dead":
                continue
            h.probes += 1
            if not bool(self.devices[name].backend.failed):
                h.misses = 0
                if h.state == "suspect":
                    h.state = "alive"
                    h.suspected_at = None
                continue
            h.misses += 1
            if h.misses >= DEAD_AFTER:
                h.state = "dead"
                h.declared_dead_at = now
                if self.on_dead is not None:
                    self.on_dead(name)
            elif h.misses >= SUSPECT_AFTER and h.state == "alive":
                h.state = "suspect"
                h.suspected_at = now

    # ------------------------------------------------------------------
    def states(self) -> Dict[str, str]:
        return {name: h.state for name, h in self.health.items()}

    def dead_shards(self) -> List[str]:
        return sorted(
            name for name, h in self.health.items() if h.state == "dead"
        )

    def alive_count(self) -> int:
        return sum(1 for h in self.health.values() if h.state != "dead")
