"""Ground-truth configuration sweeps on the discrete-event simulator.

The MVA model answers "which configuration is best" in microseconds; the
functions here answer it by actually running the simulated cluster, and
are the ground truth that E1 (Figure 2) reports and that the MVA model
is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.config import ClusterConfig
from repro.common.errors import ExperimentError
from repro.common.types import QuorumConfig
from repro.sds.cluster import SwiftCluster
from repro.sds.quorum import QuorumSystem
from repro.workloads.generator import SyntheticWorkload, WorkloadSpec


@dataclass(frozen=True)
class MeasuredThroughput:
    """One simulator measurement."""

    spec: WorkloadSpec
    quorum: QuorumConfig
    throughput: float
    mean_latency: float


@dataclass(frozen=True)
class ConfigSweepResult:
    """Throughput of every minimal strict configuration for one workload."""

    spec: WorkloadSpec
    throughputs: dict[int, float]

    @property
    def best_write_quorum(self) -> int:
        return max(self.throughputs, key=lambda w: self.throughputs[w])

    @property
    def best_throughput(self) -> float:
        return self.throughputs[self.best_write_quorum]

    @property
    def worst_throughput(self) -> float:
        return min(self.throughputs.values())

    @property
    def tuning_impact(self) -> float:
        """Best/worst throughput ratio — the paper's "up to 5x" metric."""
        worst = self.worst_throughput
        if worst <= 0:
            return float("inf")
        return self.best_throughput / worst

    def normalized(self) -> dict[int, float]:
        """Throughputs relative to the best configuration (Figure 2)."""
        best = self.best_throughput
        if best <= 0:
            raise ExperimentError("sweep produced zero throughput")
        return {w: x / best for w, x in self.throughputs.items()}


def measure_throughput(
    spec: WorkloadSpec,
    write_quorum: int,
    cluster_config: Optional[ClusterConfig] = None,
    duration: float = 8.0,
    warmup: float = 2.0,
    seed: int = 0,
) -> MeasuredThroughput:
    """Run one (workload, configuration) point on the simulator."""
    if warmup >= duration:
        raise ExperimentError("warmup must be shorter than duration")
    base = cluster_config or ClusterConfig()
    config = base.with_quorum(
        QuorumConfig.from_write(write_quorum, base.replication_degree)
    ).validate()
    cluster = SwiftCluster(config, seed=seed)
    cluster.add_clients(SyntheticWorkload(spec, seed=seed + 1))
    cluster.run(duration)
    throughput = cluster.log.throughput(warmup, duration)
    latency = cluster.log.latency_summary().mean
    return MeasuredThroughput(
        spec=spec,
        quorum=config.initial_quorum,
        throughput=throughput,
        mean_latency=latency,
    )


def sweep_configurations(
    spec: WorkloadSpec,
    cluster_config: Optional[ClusterConfig] = None,
    duration: float = 8.0,
    warmup: float = 2.0,
    seed: int = 0,
) -> ConfigSweepResult:
    """Measure every minimal strict configuration for one workload."""
    base = cluster_config or ClusterConfig()
    throughputs = {
        write: measure_throughput(
            spec,
            write,
            cluster_config=base,
            duration=duration,
            warmup=warmup,
            seed=seed,
        ).throughput
        for write in QuorumSystem(base.replication_degree).admissible_writes()
    }
    return ConfigSweepResult(spec=spec, throughputs=throughputs)
