"""Scale-out benchmark: S independent shards versus one ring.

``python -m repro loadgen --shards N`` runs this self-contained
sequence (it boots its own clusters, like ``livesmoke``):

1. **single-ring reference** — one shard-sized cluster under the same
   client fleet, measuring the throughput one ring delivers;
2. **pre-reconfig** — the S-shard fleet under full load, shard 0 at
   W=4 and shard 1 at W=2;
3. **reconfig-storm** — the same load while two shards reconfigure
   *concurrently* in opposite directions (shard 0 W=4→2, shard 1
   W=2→4): the first real stress test of reconfiguration concurrency,
   since each shard's two-phase change must drain only its own proxies;
4. **post-reconfig** — steady state on the new per-shard quorums.

The report (``BENCH_net_scaleout.json``) carries per-shard Wing-Gong
verdicts over the whole cross-phase history, per-shard throughput for
every phase, the merged-histogram aggregate latencies, the machine's
core count and the fleet/single-ring speedup.  Near-linear scaling is
only physically possible up to ``min(S, cores)`` — the report records
both so a 1-core CI runner and a 16-core workstation read the same
numbers honestly.  Both rings boot through :func:`run_live`, so a worker
of either that dies or exits uncleanly fails the run.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.net.cluster import LocalCluster
from repro.net.loadgen import (
    HarnessChecks,
    LoadGenerator,
    LoadgenResult,
    run_live,
)
from repro.net.spec import build_spec


def available_cores() -> int:
    """Cores this process may run on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _ops_per_sec(result: LoadgenResult, phase_name: str) -> float:
    for phase in result.phases:
        if phase.name == phase_name:
            return phase.ops_per_sec
    return 0.0


@dataclass
class ScaleoutReport(HarnessChecks):
    """What the scale-out run adds to the fleet's report: the single-ring
    reference, the concurrent reconfiguration storm and starved shards."""

    title = "scaleout"

    shards: int
    cores: int
    #: The single-ring reference run's own report.
    single_ring: LoadgenResult
    #: Wall seconds each shard's mid-load reconfiguration took.
    reconfig_seconds: Dict[str, float] = field(default_factory=dict)
    #: Routing-table refreshes the storm triggered.
    route_refreshes: int = 0

    @property
    def expected_scaling(self) -> int:
        """Near-linear scaling is bounded by cores: min(S, cores)."""
        return max(1, min(self.shards, self.cores))

    def speedup(self, fleet: LoadgenResult) -> Optional[float]:
        """Steady pre-reconfig fleet ops/sec over the single ring's."""
        reference = _ops_per_sec(self.single_ring, "single-ring")
        steady = _ops_per_sec(fleet, "pre-reconfig")
        return steady / reference if reference > 0 else None

    def verdicts(self, result: LoadgenResult) -> List[str]:
        problems = [
            f"single-ring: {problem}"
            for problem in self.single_ring.problems()
        ]
        if len(self.reconfig_seconds) < 2:
            problems.append(
                "concurrent reconfiguration storm did not complete "
                f"({len(self.reconfig_seconds)}/2 shards reconfigured)"
            )
        for phase in result.phases:
            for shard, count in sorted(phase.shard_operations.items()):
                if count == 0:
                    problems.append(
                        f"phase {phase.name}: shard {shard} completed "
                        "zero operations"
                    )
        return problems

    def json_fields(self, result: LoadgenResult) -> Dict[str, object]:
        speedup = self.speedup(result)
        return {
            "shards": self.shards,
            "cores": self.cores,
            "expected_scaling": self.expected_scaling,
            "single_ring": self.single_ring.phases[0].as_dict(),
            "speedup": None if speedup is None else round(speedup, 2),
            "route_refreshes": self.route_refreshes,
        }

    def render_lines(self, result: LoadgenResult) -> List[str]:
        reference = _ops_per_sec(self.single_ring, "single-ring")
        lines = [
            f"{self.shards} shards on {self.cores} core(s)",
            f"single-ring: {reference:.0f} ops/s",
        ]
        speedup = self.speedup(result)
        if speedup is not None:
            lines.append(
                f"speedup: {speedup:.2f}x (near-linear bound on this "
                f"machine: {self.expected_scaling}x)"
            )
        lines.extend(
            f"reconfig {shard}: {seconds * 1000:.0f} ms"
            for shard, seconds in sorted(self.reconfig_seconds.items())
        )
        return lines


async def run_scaleout(
    shards: int = 2,
    replicas: int = 5,
    duration: float = 3.0,
    clients: int = 8,
    workload: str = "a",
    object_size: int = 1024,
    objects: int = 64,
    seed: int = 1,
    pipeline_depth: int = 4,
    injection_rate: float = 0.0,
) -> LoadgenResult:
    """Run the full scale-out sequence; never leaves processes behind.

    The reference and the fleet run *sequentially* so they never contend
    for the same cores — the comparison must charge each topology the
    whole machine.
    """
    if shards < 2:
        raise ValueError("scaleout needs at least 2 shards")
    load: Dict[str, Any] = dict(
        clients=clients,
        workload=workload,
        object_size=object_size,
        objects=objects,
        seed=seed,
        pipeline_depth=pipeline_depth,
        injection_rate=injection_rate,
    )
    write_quorum = 3 if replicas >= 3 else replicas

    async def reference(
        generator: LoadGenerator, cluster: LocalCluster
    ) -> HarnessChecks:
        del cluster
        await generator.run_phase(
            name="single-ring", duration=duration, write_quorum=write_quorum
        )
        return HarnessChecks()

    single_ring = await run_live(
        build_spec(
            replicas=replicas, proxies=1, write_quorum=write_quorum, seed=seed
        ),
        reference,
        **load,
    )

    # Shard 0 starts wide (W=4) and will shrink; shard 1 starts narrow
    # (W=2) and will grow — the opposing pair the storm phase flips.
    quorums = [3] * shards
    quorums[0] = min(4, replicas)
    quorums[1] = 2
    fleet = build_spec(
        replicas=replicas,
        proxies=1,
        write_quorum=write_quorum,
        seed=seed,
        shards=shards,
        shard_write_quorums=quorums,
    )
    wide, narrow = fleet.shards[:2]

    async def storm(
        generator: LoadGenerator, cluster: LocalCluster
    ) -> ScaleoutReport:
        del cluster
        reconfig_seconds: Dict[str, float] = {}
        await generator.run_phase(
            name="pre-reconfig", duration=duration, write_quorum=quorums[0]
        )

        async def flip(shard: str, write_quorum: int) -> None:
            # Let the phase's fleet ramp up before reconfiguring, so the
            # storm genuinely runs under load.
            await asyncio.sleep(duration * 0.25)
            reconfig_seconds[shard] = await generator.reconfigure(
                write_quorum, shard=shard
            )

        await asyncio.gather(
            generator.run_phase(
                name="reconfig-storm", duration=duration, write_quorum=2
            ),
            flip(wide.name, narrow.write_quorum),
            flip(narrow.name, wide.write_quorum),
        )
        await generator.run_phase(
            name="post-reconfig", duration=duration, write_quorum=2
        )
        return ScaleoutReport(
            shards=shards,
            cores=available_cores(),
            single_ring=single_ring,
            reconfig_seconds=reconfig_seconds,
            route_refreshes=(
                generator.router.refreshes
                if generator.router is not None
                else 0
            ),
        )

    return await run_live(fleet, storm, **load)


__all__ = [
    "ScaleoutReport",
    "available_cores",
    "run_scaleout",
]
