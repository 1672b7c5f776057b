"""Process-level nemesis for the live runtime.

The simulator's nemesis (:mod:`repro.sim.nemesis`) schedules *modelled*
faults inside one process; this module does it to a real
:class:`~repro.net.cluster.LocalCluster`: seeded kill → restart
schedules delivered as SIGKILL to worker processes, and a restart
policy with exponential backoff and fail-fast health checks.

Faults are *faithful*: a killed replica loses exactly what a ``kill -9``
loses (its process state and any unfsynced WAL tail).

Determinism: the schedule is derived from the cluster seed through the
usual substream discipline, so a CI failure reproduces locally from the
same ``--seed``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.rng import substream
from repro.net.cluster import LocalCluster
from repro.net.httpd import http_get
from repro.net.spec import ClusterSpec


# --------------------------------------------------------------------------
# Seeded kill/restart schedules
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KillCycle:
    """One kill → restart cycle of the schedule."""

    victim: str
    #: Seconds to wait (from the previous cycle's end) before the kill.
    delay: float
    #: Seconds the victim stays dead before the restart is attempted.
    downtime: float


def build_schedule(
    spec: ClusterSpec,
    seed: int,
    cycles: int,
    delay_range: Tuple[float, float] = (1.0, 2.5),
    downtime_range: Tuple[float, float] = (0.4, 1.2),
) -> List[KillCycle]:
    """A seeded storage-victim schedule; deterministic given the seed."""
    rng = substream(seed, "nemesis", "schedule")
    victims = [address.name for address in spec.replicas]
    schedule: List[KillCycle] = []
    previous: Optional[str] = None
    for _ in range(cycles):
        victim = rng.choice(victims)
        # Avoid back-to-back kills of the same replica when possible:
        # the point is churn across the fleet, not one node flapping.
        if victim == previous and len(victims) > 1:
            victim = rng.choice([v for v in victims if v != previous])
        previous = victim
        schedule.append(
            KillCycle(
                victim=victim,
                delay=rng.uniform(*delay_range),
                downtime=rng.uniform(*downtime_range),
            )
        )
    return schedule


# --------------------------------------------------------------------------
# Restart policy + live nemesis
# --------------------------------------------------------------------------


#: Restart backoff: ``BACKOFF_BASE * 2**attempt``, capped at ``BACKOFF_CAP``.
BACKOFF_BASE = 0.2
BACKOFF_CAP = 2.0
#: Restarts tried before a cycle is reported as a problem.
MAX_RESTART_ATTEMPTS = 3
#: Deadline for a restarted process to answer ``/healthz``.
HEALTH_DEADLINE = 15.0
#: Deadline for a recovered replica to leave quarantine.
RECOVERY_DEADLINE = 30.0


def backoff(attempt: int) -> float:
    """Seconds to wait after failed restart ``attempt`` (0-based)."""
    return min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** attempt))


@dataclass
class NemesisCycleResult:
    """What one kill → restart cycle observed."""

    victim: str
    killed_at: float
    restarted_at: float = 0.0
    restart_attempts: int = 0
    #: Wall seconds from (first) restart to quarantine exit; None if the
    #: replica never rejoined within the recovery deadline.
    recovery_seconds: Optional[float] = None
    #: Whether the replica was ever observed read-excluded after the
    #: restart (the I6 quarantine window is visible on ``/healthz``).
    quarantine_observed: bool = False

    def as_dict(self) -> dict:
        return {
            "victim": self.victim,
            "restart_attempts": self.restart_attempts,
            "recovery_seconds": (
                None
                if self.recovery_seconds is None
                else round(self.recovery_seconds, 3)
            ),
            "quarantine_observed": self.quarantine_observed,
        }


class LiveNemesis:
    """Drives a kill/restart schedule against a supervised cluster."""

    def __init__(self, cluster: LocalCluster) -> None:
        self.cluster = cluster
        self.cycles: List[NemesisCycleResult] = []
        self.problems: List[str] = []

    async def run(self, cycles: List[KillCycle]) -> None:
        """Execute ``cycles``; problems accumulate, they do not raise."""
        loop = asyncio.get_running_loop()
        for cycle in cycles:
            await asyncio.sleep(cycle.delay)
            self.cluster.kill_worker(cycle.victim)
            result = NemesisCycleResult(
                victim=cycle.victim, killed_at=loop.time()
            )
            self.cycles.append(result)
            await asyncio.sleep(cycle.downtime)
            result.restarted_at = loop.time()
            if not await self._restart(cycle.victim, result):
                self.problems.append(
                    f"{cycle.victim}: did not come back healthy after "
                    f"{MAX_RESTART_ATTEMPTS} restart attempts"
                )
                continue
            rejoined_at = await self._await_readmission(cycle.victim, result)
            if rejoined_at is None:
                self.problems.append(
                    f"{cycle.victim}: still quarantined after "
                    f"{RECOVERY_DEADLINE}s"
                )
            else:
                result.recovery_seconds = rejoined_at - result.restarted_at

    async def _restart(
        self, name: str, result: NemesisCycleResult
    ) -> bool:
        """Respawn with backoff until the worker answers ``/healthz``."""
        for attempt in range(MAX_RESTART_ATTEMPTS):
            worker = self.cluster.restart_worker(name)
            result.restart_attempts += 1
            try:
                await self.cluster.wait_worker_healthy(
                    worker, deadline=HEALTH_DEADLINE
                )
                return True
            except (RuntimeError, TimeoutError):
                # Crashed on boot or wedged: put it down cleanly and
                # retry after backoff (dead-worker detection is the
                # fail-fast path inside wait_worker_healthy).
                self.cluster.kill_worker(name)
                await asyncio.sleep(backoff(attempt))
        return False

    async def _await_readmission(
        self, name: str, result: NemesisCycleResult
    ) -> Optional[float]:
        """Poll ``/healthz`` until the replica reports quarantine over."""
        loop = asyncio.get_running_loop()
        worker = self.cluster.worker(name)
        give_up = loop.time() + RECOVERY_DEADLINE
        while loop.time() < give_up:
            try:
                status, body = await http_get(
                    worker.address.host,
                    worker.address.http_port,
                    "/healthz",
                    timeout=2.0,
                )
            except (OSError, asyncio.TimeoutError, ValueError, IndexError):
                status, body = 0, ""
            if status == 200:
                if "quarantined=true" in body:
                    result.quarantine_observed = True
                elif "quarantined=false" in body:
                    return loop.time()
                else:
                    # Memory-backed replica: no quarantine phase at all.
                    return loop.time()
            await asyncio.sleep(0.02)
        return None


__all__ = [
    "KillCycle",
    "NemesisCycleResult",
    "LiveNemesis",
    "backoff",
    "build_schedule",
]
