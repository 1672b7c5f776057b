"""Live chaos harness: kill -9 / recover cycles under load, then verify.

``python -m repro livechaos`` is the crash-recovery end-to-end gate:

1. boot a WAL-backed localhost cluster (``spec.data_dir`` set, so every
   replica journals to disk and recovers through the I6 quarantine);
2. run a timed workload-A phase at W=4 while a seeded kill schedule
   (:func:`build_schedule`) SIGKILLs storage replicas and
   :meth:`~repro.net.cluster.LocalCluster.kill_and_restart` brings each
   one back, and the load generator's own TCP links are reset
   mid-phase;
3. drive a live W=4 → W=2 reconfiguration and keep loading through more
   kill cycles;
4. run a quiescent read-back sweep over every object and compute the
   *direct* durability verdict: an acknowledged write is lost if any
   read invoked after its acknowledgement returned an older acknowledged
   value (or the initial value) for that object;
5. feed the full cross-phase history to the Wing-Gong linearizability
   checker and scrape every restarted replica for
   ``qopt_replica_recoveries_total`` — a restarted replica must have
   completed at least one quarantined rejoin, i.e. it re-entered read
   quorums only after the I6 epoch sync.

Faults are *faithful*: a killed replica loses exactly what a ``kill -9``
loses (its process state and any unfsynced WAL tail).  The schedule is
derived from the cluster seed through the usual substream discipline,
so a CI failure reproduces locally from the same ``--seed``.

What gates it: everything the run report gates on except failed
load-phase operations (see :meth:`ChaosReport.tolerates_failures`),
plus lost acknowledged writes, kill cycles that did not run or never
recovered, and restarted replicas without a completed recovery.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.rng import substream
from repro.common.types import ObjectId, OpType
from repro.net.cluster import LocalCluster, RestartRecord
from repro.net.loadgen import (
    HarnessChecks,
    LoadGenerator,
    LoadgenResult,
    PhaseResult,
    Samples,
    metric_value,
    run_live,
)
from repro.net.spec import ClusterSpec, build_spec
from repro.sds.client import OperationRecord
from repro.workloads.base import Operation

#: Name of the quiescent read-back phase.
READBACK = "readback"

#: The gauge a restarted replica bumps when its I6 rejoin completes.
RECOVERIES = "qopt_replica_recoveries_total"

#: Seconds before each kill (from the previous cycle's end), drawn uniformly.
KILL_DELAY = (1.0, 2.5)
#: Seconds each victim stays dead before its restart, drawn uniformly.
DOWNTIME = (0.4, 1.2)


@dataclass(frozen=True)
class KillCycle:
    """One kill → restart cycle of the schedule."""

    victim: str
    #: Seconds to wait (from the previous cycle's end) before the kill.
    delay: float
    #: Seconds the victim stays dead before the restart is attempted.
    downtime: float


def build_schedule(
    spec: ClusterSpec, seed: int, cycles: int
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
                delay=rng.uniform(*KILL_DELAY),
                downtime=rng.uniform(*DOWNTIME),
            )
        )
    return schedule


async def _run_cycles(
    cluster: LocalCluster, schedule: List[KillCycle]
) -> List[RestartRecord]:
    """Execute ``schedule`` against ``cluster``, one record per cycle;
    problems land in the records, they do not raise."""
    records: List[RestartRecord] = []
    for cycle in schedule:
        await asyncio.sleep(cycle.delay)
        records.append(
            await cluster.kill_and_restart(cycle.victim, cycle.downtime)
        )
    return records


@dataclass
class _ReadbackSource:
    """Round-robin read-only sweep over a fixed object set.

    Cycling (rather than sampling) guarantees every object is read at
    least once per ``len(objects)`` issued operations, so a long-enough
    sweep covers the whole keyspace deterministically.
    """

    objects: List[ObjectId]
    _cursor: int = 0

    def next_operation(self, rng: random.Random) -> Operation:
        del rng
        object_id = self.objects[self._cursor % len(self.objects)]
        self._cursor += 1
        return Operation(
            object_id=object_id, op_type=OpType.READ, size=0, value=b""
        )


def count_lost_acked_writes(
    history: List[OperationRecord],
    readback: List[OperationRecord],
) -> Tuple[int, List[str]]:
    """The direct durability check: did any acknowledged write vanish?

    Every read-back read was invoked after all write phases drained, so
    it must return the value of an acknowledged write that can still be
    the object's last one: a write no other acknowledged write of that
    object began after.  Overlapping writes linearize in either order,
    so the write with the latest acknowledgement need not be the last.
    A *maybe-applied* value is legal too: a write that timed out at the
    client (``completed_at = inf``) may land at any later point.  What a
    read must never return is a superseded acknowledged value (its write
    completed before another acknowledged write was invoked) or the
    initial value: both mean an acknowledged write was dropped.
    """
    acked_at: Dict[ObjectId, Dict[bytes, float]] = {}
    maybe_applied: Dict[ObjectId, set] = {}
    #: Latest invocation of an acknowledged write, per object.
    last_invoked: Dict[ObjectId, float] = {}
    for op_record in history:
        if op_record.op_type is not OpType.WRITE:
            continue
        object_id = op_record.object_id
        value = op_record.value or b""
        if math.isinf(op_record.completed_at):
            maybe_applied.setdefault(object_id, set()).add(value)
            continue
        acked_at.setdefault(object_id, {})[value] = op_record.completed_at
        if op_record.invoked_at > last_invoked.get(object_id, -math.inf):
            last_invoked[object_id] = op_record.invoked_at

    lost = 0
    details: List[str] = []
    for op_record in readback:
        if op_record.op_type is not OpType.READ:
            continue
        if math.isinf(op_record.completed_at):
            continue
        superseded_at = last_invoked.get(op_record.object_id)
        if superseded_at is None:
            continue  # object never had an acknowledged write
        observed = op_record.value or b""
        if observed in maybe_applied.get(op_record.object_id, ()):
            continue  # a timed-out write landed late: legal
        when = acked_at[op_record.object_id].get(observed)
        if when is not None and when >= superseded_at:
            continue  # overlaps the last-invoked write: may be last
        lost += 1
        age = "initial/unknown" if when is None else f"acked at {when:.3f}"
        details.append(
            f"{op_record.object_id}: read returned {age} value, superseded "
            f"by an acknowledged write invoked at {superseded_at:.3f}"
        )
    return lost, details


def replica_recoveries(
    scrapes: Dict[str, Samples], restarted: Iterable[str]
) -> Dict[str, Optional[float]]:
    """Each restarted replica's :data:`RECOVERIES` gauge, read from the
    series labelled with its own node name (``None`` when absent)."""
    return {
        name: metric_value(scrapes.get(name, {}), RECOVERIES, f'node="{name}"')
        for name in sorted(restarted)
    }


@dataclass
class ChaosReport(HarnessChecks):
    """What the chaos run adds: durability, kill cycles and recoveries."""

    title = "live-chaos"

    cycles_planned: int
    cycles: List[RestartRecord]
    lost_acked_writes: int
    lost_details: List[str]
    transport_resets: int
    #: Restart count per restarted replica.
    restarted: Dict[str, int]
    #: :func:`replica_recoveries` of the restarted replicas.
    recoveries: Dict[str, Optional[float]]

    def tolerates_failures(self, phase: PhaseResult) -> bool:
        """Client operations MAY fail while a replica is down (a W=4
        write during downtime can exhaust its deadline) — that is the
        fault model working, not a bug, so failures in the load phases
        do not gate the run.  The read-back runs with every replica
        alive: any failure there does."""
        return phase.name != READBACK

    def verdicts(self, result: LoadgenResult) -> List[str]:
        del result
        problems: List[str] = []
        if self.lost_acked_writes:
            problems.append(
                f"{self.lost_acked_writes} acknowledged writes lost"
            )
        problems.extend(c.problem for c in self.cycles if c.problem)
        if len(self.cycles) < self.cycles_planned:
            problems.append(
                f"only {len(self.cycles)} of {self.cycles_planned} kill "
                "cycles ran"
            )
        for name, value in self.recoveries.items():
            if value is None or value < 1.0:
                problems.append(
                    f"{name}: restarted {self.restarted[name]}x but "
                    f"{RECOVERIES} < 1 — rejoined read quorums without "
                    "completing the I6 epoch sync"
                )
        return problems

    def recovery_stats(self) -> dict:
        observed = [
            c.recovery_seconds
            for c in self.cycles
            if c.recovery_seconds is not None
        ]
        return {
            "cycles": len(self.cycles),
            "recovered": len(observed),
            "max_recovery_s": (
                round(max(observed), 3) if observed else None
            ),
            "mean_recovery_s": (
                round(sum(observed) / len(observed), 3) if observed else None
            ),
            "quarantine_observed": sum(
                1 for c in self.cycles if c.quarantine_observed
            ),
        }

    @staticmethod
    def ops_dip_ratio(result: LoadgenResult) -> Optional[float]:
        """min/max ops/sec across the chaos load phases (1.0 = no dip)."""
        rates = [
            phase.ops_per_sec
            for phase in result.phases
            if phase.name != READBACK and phase.ops_per_sec > 0
        ]
        if len(rates) < 2:
            return None
        return round(min(rates) / max(rates), 3)

    def json_fields(self, result: LoadgenResult) -> Dict[str, object]:
        return {
            "kill_cycles": [cycle.as_dict() for cycle in self.cycles],
            "recovery": self.recovery_stats(),
            "recoveries_metric": {
                name: value
                for name, value in self.recoveries.items()
                if value is not None
            },
            "lost_acked_writes": self.lost_acked_writes,
            "lost_details": self.lost_details,
            "transport_resets": self.transport_resets,
            "ops_dip_ratio": self.ops_dip_ratio(result),
        }

    def render_lines(self, result: LoadgenResult) -> List[str]:
        lines = []
        for cycle in self.cycles:
            recovery = (
                f"recovered in {cycle.recovery_seconds:.2f}s"
                if cycle.recovery_seconds is not None
                else "NEVER RECOVERED"
            )
            lines.append(
                f"kill {cycle.victim}: {cycle.restart_attempts} restart "
                f"attempt(s), {recovery}"
                + (" (quarantine observed)" if cycle.quarantine_observed
                   else "")
            )
        lines.append(f"lost acknowledged writes: {self.lost_acked_writes}")
        dip = self.ops_dip_ratio(result)
        if dip is not None:
            lines.append(f"ops/s dip ratio (min/max): {dip}")
        return lines


async def _reset_links_midphase(
    generator: LoadGenerator, after: float
) -> int:
    """Sever the load generator's live TCP links partway into a phase.

    Exercises the client-side reconnect path under load: in-flight
    frames are lost as a unit (at-most-once) and routes re-establish
    with backoff while operations retry.
    """
    await asyncio.sleep(after)
    transport = generator.transport
    if transport is None:
        return 0
    transport.drop_connections()
    return 1


async def run_chaos(
    replicas: int = 5,
    proxies: int = 1,
    cycles: int = 3,
    duration: float = 6.0,
    clients: int = 4,
    workload: str = "a",
    objects: int = 32,
    seed: int = 1,
    pipeline_depth: int = 4,
    workdir: Optional[str] = None,
) -> LoadgenResult:
    """Run the full kill/recover sequence; never leaves processes behind."""

    async def drive(
        generator: LoadGenerator, cluster: LocalCluster
    ) -> ChaosReport:
        schedule = build_schedule(cluster.spec, seed=seed, cycles=cycles)
        # Front-load the churn: ceil(cycles/2) under W=4, the rest under
        # W=2, so both quorum geometries see kills.
        split = cycles - cycles // 2
        records: List[RestartRecord] = []
        transport_resets = 0
        for position, (write_quorum, batch) in enumerate(
            [(4, schedule[:split]), (2, schedule[split:])]
        ):
            if position > 0:
                await generator.reconfigure(write_quorum)
            kills = asyncio.ensure_future(_run_cycles(cluster, batch))
            reset_task = asyncio.ensure_future(
                _reset_links_midphase(generator, after=duration / 2)
            )
            try:
                await generator.run_phase(
                    name=f"W={write_quorum}",
                    duration=duration,
                    write_quorum=write_quorum,
                )
            finally:
                # Let any cycle still mid-kill finish its restart in
                # quiescence before reconfiguring or reading back.
                records.extend(await kills)
                transport_resets += await reset_task
        # Quiescent read-back sweep: every object, read-only, all
        # replicas alive (the durability verdict needs a full pass).
        before = len(generator.records)
        await generator.run_phase(
            name=READBACK,
            duration=max(2.0, objects / 25.0),
            write_quorum=2,
            source=_ReadbackSource(objects=generator.workload.object_ids()),
        )
        lost, lost_details = count_lost_acked_writes(
            generator.records, generator.records[before:]
        )
        restarted = {
            worker.name: worker.restarts
            for worker in cluster.restarted_workers()
        }
        return ChaosReport(
            cycles_planned=cycles,
            cycles=records,
            lost_acked_writes=lost,
            lost_details=lost_details,
            transport_resets=transport_resets,
            restarted=restarted,
            recoveries=replica_recoveries(
                await generator.scrape(), restarted
            ),
        )

    workdir = workdir or tempfile.mkdtemp(prefix="qopt-chaos-")
    spec = build_spec(
        replicas=replicas,
        proxies=proxies,
        write_quorum=4,
        seed=seed,
        data_dir=os.path.join(workdir, "data"),
    )
    return await run_live(
        spec,
        drive,
        workdir=workdir,
        clients=clients,
        workload=workload,
        objects=objects,
        seed=seed,
        pipeline_depth=pipeline_depth,
    )


__all__ = [
    "ChaosReport",
    "KillCycle",
    "build_schedule",
    "count_lost_acked_writes",
    "replica_recoveries",
    "run_chaos",
]
