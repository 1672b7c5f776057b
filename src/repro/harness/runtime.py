"""Full-stack experiment regenerators (E5-E8).

These run the complete Q-OPT system — cluster, Reconfiguration Manager,
Oracle and Autonomic Manager — on the discrete-event simulator:

* :func:`qopt_vs_static` — E5: Q-OPT's steady-state throughput against
  the best and worst static configurations (the paper's headline
  "only slightly lower than the optimal configuration").
* :func:`reconfiguration_overhead` — E6 (+ ablation A3): throughput
  timeline around a reconfiguration, for the non-blocking protocol and
  the stop-the-world baseline.
* :func:`dynamic_adaptation` — E7: reaction to a Dropbox-style workload
  switch (read-heavy office phase -> write-heavy home phase).
* :func:`per_object_vs_global` — E8 (+ ablation A2): multi-profile
  workload where per-object fine-grain tuning beats any single global
  configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.analysis.optimal import ConfigSweepResult, sweep_configurations
from repro.autonomic.qopt import QOptSystem, attach_qopt
from repro.common.config import AutonomicConfig, ClusterConfig
from repro.common.errors import ExperimentError
from repro.common.types import QuorumConfig
from repro.harness.tables import render_table
from repro.metrics.timeline import DipStatistics, Timeline
from repro.oracle.service import QuorumOracle
from repro.reconfig.blocking import attach_blocking_manager
from repro.reconfig.manager import attach_reconfiguration_manager
from repro.sds.cluster import SwiftCluster
from repro.sds.quorum import QuorumSystem
from repro.workloads import ycsb
from repro.workloads.generator import (
    MixedWorkload,
    MixtureComponent,
    SyntheticWorkload,
    WorkloadSpec,
)
from repro.workloads.traces import Phase, PhasedWorkload

#: Control-loop settings compressed for simulation time scales; the
#: paper's production prototype uses 30 s windows, the simulation plays
#: the same loop at seconds granularity.
FAST_AUTONOMIC = AutonomicConfig(
    round_duration=2.0, quarantine=0.5, top_k=8, gamma=2, theta=0.02
)


# ---------------------------------------------------------------------------
# E5 — Q-OPT vs static configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QOptVsStaticRow:
    spec: WorkloadSpec
    static_sweep: ConfigSweepResult
    qopt_throughput: float

    @property
    def normalized_vs_best(self) -> float:
        best = self.static_sweep.best_throughput
        return self.qopt_throughput / best if best > 0 else 0.0

    @property
    def normalized_vs_worst(self) -> float:
        worst = self.static_sweep.worst_throughput
        return self.qopt_throughput / worst if worst > 0 else float("inf")


@dataclass(frozen=True)
class QOptVsStaticResult:
    rows: list[QOptVsStaticRow]

    @property
    def mean_normalized(self) -> float:
        return sum(r.normalized_vs_best for r in self.rows) / len(self.rows)

    @property
    def worst_normalized(self) -> float:
        return min(r.normalized_vs_best for r in self.rows)

    def render(self) -> str:
        rows = [
            (
                row.spec.label,
                f"W={row.static_sweep.best_write_quorum}",
                f"{row.static_sweep.best_throughput:.0f}",
                f"{row.qopt_throughput:.0f}",
                f"{row.normalized_vs_best:.2f}",
                f"{row.normalized_vs_worst:.2f}x",
            )
            for row in self.rows
        ]
        table = render_table(
            [
                "workload",
                "best static",
                "best ops/s",
                "q-opt ops/s",
                "q-opt/best",
                "q-opt/worst",
            ],
            rows,
            title="E5: Q-OPT vs static quorum configurations",
        )
        return (
            table
            + f"\nmean Q-OPT/optimal = {self.mean_normalized:.2f} "
            f"(worst {self.worst_normalized:.2f})"
        )


def qopt_vs_static(
    specs: Optional[Sequence[WorkloadSpec]] = None,
    cluster_config: Optional[ClusterConfig] = None,
    autonomic_config: Optional[AutonomicConfig] = None,
    static_duration: float = 8.0,
    static_warmup: float = 2.0,
    qopt_duration: float = 24.0,
    measure_window: float = 6.0,
    seed: int = 0,
) -> QOptVsStaticResult:
    """Measure Q-OPT against every static configuration per workload."""
    base = cluster_config or ClusterConfig(num_proxies=2, clients_per_proxy=5)
    if specs is None:
        specs = [
            WorkloadSpec(write_ratio=0.05, object_size=64 * 1024, name="read-heavy"),
            WorkloadSpec(write_ratio=0.50, object_size=64 * 1024, name="mixed"),
            WorkloadSpec(write_ratio=0.95, object_size=64 * 1024, name="write-heavy"),
        ]
    oracle = QuorumOracle.trained_default(base)
    rows: list[QOptVsStaticRow] = []
    for spec in specs:
        sweep = sweep_configurations(
            spec,
            cluster_config=base,
            duration=static_duration,
            warmup=static_warmup,
            seed=seed,
        )
        cluster = SwiftCluster(base, seed=seed)
        attach_qopt(
            cluster,
            autonomic_config=autonomic_config or FAST_AUTONOMIC,
            oracle=oracle,
        )
        cluster.add_clients(SyntheticWorkload(spec, seed=seed + 1))
        cluster.run(qopt_duration)
        throughput = cluster.log.throughput(
            qopt_duration - measure_window, qopt_duration
        )
        rows.append(
            QOptVsStaticRow(
                spec=spec, static_sweep=sweep, qopt_throughput=throughput
            )
        )
    return QOptVsStaticResult(rows=rows)


# ---------------------------------------------------------------------------
# E6 — reconfiguration overhead (+ ablation A3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconfigOverheadResult:
    nonblocking: DipStatistics
    blocking: DipStatistics
    blocking_pause_time: float
    timeline_nonblocking: Timeline
    timeline_blocking: Timeline

    def render(self) -> str:
        rows = [
            (
                "Q-OPT non-blocking",
                f"{self.nonblocking.before:.0f}",
                f"{self.nonblocking.during_min:.0f}",
                f"{self.nonblocking.after:.0f}",
                f"{self.nonblocking.relative_dip * 100:.1f}%",
            ),
            (
                "stop-the-world",
                f"{self.blocking.before:.0f}",
                f"{self.blocking.during_min:.0f}",
                f"{self.blocking.after:.0f}",
                f"{self.blocking.relative_dip * 100:.1f}%",
            ),
        ]
        table = render_table(
            ["protocol", "before ops/s", "min during", "after", "worst dip"],
            rows,
            title="E6 / A3: throughput around a global reconfiguration",
        )
        return (
            table
            + f"\nstop-the-world paused the data plane for "
            f"{self.blocking_pause_time * 1000:.0f} ms"
        )


def reconfiguration_overhead(
    spec: Optional[WorkloadSpec] = None,
    cluster_config: Optional[ClusterConfig] = None,
    from_write: int = 3,
    to_write: int = 2,
    reconfigure_at: float = 6.0,
    duration: float = 12.0,
    warmup: float = 2.0,
    bin_width: float = 0.25,
    settle: float = 2.0,
    seed: int = 0,
) -> ReconfigOverheadResult:
    """Throughput timelines around one reconfiguration, both protocols."""
    if not warmup < reconfigure_at < duration:
        raise ExperimentError("need warmup < reconfigure_at < duration")
    base = cluster_config or ClusterConfig(num_proxies=2, clients_per_proxy=5)
    spec = spec or ycsb.workload_a(object_size=64 * 1024, num_objects=128)
    degree = base.replication_degree
    start_quorum = QuorumConfig.from_write(from_write, degree)
    target_quorum = QuorumConfig.from_write(to_write, degree)

    def run(blocking: bool) -> tuple[Timeline, DipStatistics, float]:
        cluster = SwiftCluster(base.with_quorum(start_quorum), seed=seed)
        if blocking:
            manager = attach_blocking_manager(cluster)
        else:
            manager = attach_reconfiguration_manager(cluster)
        cluster.add_clients(SyntheticWorkload(spec, seed=seed + 1))
        cluster.run(reconfigure_at)
        manager.change_global(target_quorum)
        cluster.run(duration - reconfigure_at)
        timeline = Timeline(cluster.log, warmup, duration, bin_width)
        dip = timeline.dip_statistics(reconfigure_at, settle)
        pause = getattr(manager, "total_pause_time", 0.0)
        return timeline, dip, pause

    timeline_nb, dip_nb, _ = run(blocking=False)
    timeline_b, dip_b, pause = run(blocking=True)
    return ReconfigOverheadResult(
        nonblocking=dip_nb,
        blocking=dip_b,
        blocking_pause_time=pause,
        timeline_nonblocking=timeline_nb,
        timeline_blocking=timeline_b,
    )


# ---------------------------------------------------------------------------
# E7 — dynamic adaptation to a workload switch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicAdaptationResult:
    timeline_qopt: Timeline
    timeline_static: Timeline
    switch_time: float
    qopt_before: float
    qopt_after: float
    static_after: float
    adaptation_time: Optional[float]
    reconfigurations: int

    @property
    def improvement_over_static(self) -> float:
        if self.static_after <= 0:
            return float("inf")
        return self.qopt_after / self.static_after

    def render(self) -> str:
        adaptation = (
            f"{self.adaptation_time:.1f}s"
            if self.adaptation_time is not None
            else "n/a"
        )
        rows = [
            ("Q-OPT before switch (ops/s)", f"{self.qopt_before:.0f}"),
            ("Q-OPT after switch (ops/s)", f"{self.qopt_after:.0f}"),
            ("static after switch (ops/s)", f"{self.static_after:.0f}"),
            ("Q-OPT / static after switch", f"{self.improvement_over_static:.2f}x"),
            ("time to adapt", adaptation),
            ("reconfigurations triggered", str(self.reconfigurations)),
        ]
        return render_table(
            ["metric", "value"],
            rows,
            title="E7: adaptation to a read-heavy -> write-heavy switch",
        )


def dynamic_adaptation(
    cluster_config: Optional[ClusterConfig] = None,
    autonomic_config: Optional[AutonomicConfig] = None,
    office_write_ratio: float = 0.05,
    home_write_ratio: float = 0.95,
    object_size: int = 64 * 1024,
    num_objects: int = 128,
    switch_time: float = 20.0,
    duration: float = 44.0,
    bin_width: float = 1.0,
    seed: int = 0,
) -> DynamicAdaptationResult:
    """Run the commute trace with Q-OPT and with a frozen configuration."""
    if switch_time >= duration:
        raise ExperimentError("switch_time must precede duration")
    base = cluster_config or ClusterConfig(num_proxies=2, clients_per_proxy=5)
    office = WorkloadSpec(
        write_ratio=office_write_ratio,
        object_size=object_size,
        num_objects=num_objects,
        skew=0.9,
        name="commute",
    )
    home = office.with_write_ratio(home_write_ratio)

    def build_workload(cluster: SwiftCluster) -> PhasedWorkload:
        return PhasedWorkload(
            phases=[
                Phase(start_time=0.0, spec=office),
                Phase(start_time=switch_time, spec=home),
            ],
            clock=lambda: cluster.sim.now,
            seed=seed + 1,
        )

    # Q-OPT run.
    cluster = SwiftCluster(base, seed=seed)
    system: QOptSystem = attach_qopt(
        cluster, autonomic_config=autonomic_config or FAST_AUTONOMIC
    )
    cluster.add_clients(build_workload(cluster))
    cluster.run(duration)
    timeline_qopt = Timeline(cluster.log, 2.0, duration, bin_width)
    qopt_before = timeline_qopt.mean_throughput(
        max(2.0, switch_time - 6.0), switch_time
    )
    qopt_after = timeline_qopt.mean_throughput(duration - 6.0, duration)
    adaptation_time: Optional[float] = None
    for point in timeline_qopt.points:
        if point.midpoint <= switch_time:
            continue
        if qopt_after > 0 and point.throughput >= 0.9 * qopt_after:
            adaptation_time = point.midpoint - switch_time
            break
    reconfigurations = (
        system.autonomic_manager.fine_reconfigurations
        + system.autonomic_manager.coarse_reconfigurations
    )

    # Static run: same workload, configuration frozen at the initial one.
    static_cluster = SwiftCluster(base, seed=seed)
    static_cluster.add_clients(build_workload(static_cluster))
    static_cluster.run(duration)
    timeline_static = Timeline(static_cluster.log, 2.0, duration, bin_width)
    static_after = timeline_static.mean_throughput(duration - 6.0, duration)

    return DynamicAdaptationResult(
        timeline_qopt=timeline_qopt,
        timeline_static=timeline_static,
        switch_time=switch_time,
        qopt_before=qopt_before,
        qopt_after=qopt_after,
        static_after=static_after,
        adaptation_time=adaptation_time,
        reconfigurations=reconfigurations,
    )


# ---------------------------------------------------------------------------
# E8 — per-object vs global tuning (+ ablation A2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerObjectResult:
    throughputs: dict[str, float]
    overrides_installed: int

    @property
    def fine_grain_gain(self) -> float:
        """Q-OPT full over the best global static configuration."""
        best_static = max(
            value
            for name, value in self.throughputs.items()
            if name.startswith("static")
        )
        if best_static <= 0:
            return float("inf")
        return self.throughputs["q-opt (per-object)"] / best_static

    def render(self) -> str:
        rows = [
            (name, f"{value:.0f}") for name, value in self.throughputs.items()
        ]
        table = render_table(
            ["system", "ops/s"],
            rows,
            title="E8 / A2: per-object tuning on a multi-profile workload",
        )
        return (
            table
            + f"\nper-object overrides installed: {self.overrides_installed}; "
            f"fine-grain gain over best global static: "
            f"{self.fine_grain_gain:.2f}x"
        )


def per_object_vs_global(
    cluster_config: Optional[ClusterConfig] = None,
    autonomic_config: Optional[AutonomicConfig] = None,
    hot_objects: int = 16,
    object_size: int = 64 * 1024,
    static_duration: float = 8.0,
    qopt_duration: float = 30.0,
    measure_window: float = 6.0,
    seed: int = 0,
) -> PerObjectResult:
    """Two hot object populations with opposite profiles plus a cold tail.

    Compares every global static configuration, Q-OPT restricted to the
    coarse tail step (ablation A2) and full per-object Q-OPT.
    """
    base = cluster_config or ClusterConfig(num_proxies=2, clients_per_proxy=5)

    def build_workload(seed_offset: int = 0) -> MixedWorkload:
        return MixedWorkload(
            [
                MixtureComponent(
                    WorkloadSpec(
                        write_ratio=0.02,
                        object_size=object_size,
                        num_objects=hot_objects,
                        skew=0.5,
                        name="hot-read",
                    ),
                    weight=0.45,
                ),
                MixtureComponent(
                    WorkloadSpec(
                        write_ratio=0.98,
                        object_size=object_size,
                        num_objects=hot_objects,
                        skew=0.5,
                        name="hot-write",
                    ),
                    weight=0.45,
                ),
                MixtureComponent(
                    WorkloadSpec(
                        write_ratio=0.50,
                        object_size=object_size,
                        num_objects=256,
                        name="cold-tail",
                    ),
                    weight=0.10,
                ),
            ],
            seed=seed + seed_offset,
        )

    throughputs: dict[str, float] = {}
    for quorum in QuorumSystem(base.replication_degree).minimal_configs():
        cluster = SwiftCluster(base.with_quorum(quorum), seed=seed)
        cluster.add_clients(build_workload())
        cluster.run(static_duration)
        throughputs[f"static {quorum}"] = cluster.log.throughput(
            static_duration - measure_window, static_duration
        )

    am_config = autonomic_config or replace(FAST_AUTONOMIC, top_k=16)
    oracle = QuorumOracle.trained_default(base)

    def run_qopt(name: str, config: AutonomicConfig) -> int:
        cluster = SwiftCluster(base, seed=seed)
        system = attach_qopt(cluster, autonomic_config=config, oracle=oracle)
        cluster.add_clients(build_workload())
        cluster.run(qopt_duration)
        throughputs[name] = cluster.log.throughput(
            qopt_duration - measure_window, qopt_duration
        )
        return len(system.autonomic_manager.installed_overrides)

    run_qopt("q-opt (tail only)", replace(am_config, enable_fine_grain=False))
    overrides = run_qopt("q-opt (per-object)", am_config)
    return PerObjectResult(
        throughputs=throughputs, overrides_installed=overrides
    )
