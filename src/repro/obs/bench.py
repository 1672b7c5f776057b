"""Perf-regression harness: a pinned scenario matrix with invariants.

``python -m repro bench`` runs a fixed matrix of small simulated
scenarios — YCSB-style workloads under different quorum configurations,
a chaos run with an injected partition, and a self-tuning
reconfiguration run — with the full observability stack enabled, then
writes ``BENCH_obs.json``.

Two kinds of numbers come out, and they must not be confused:

* **Simulated** metrics (throughput, per-phase latency percentiles,
  retry/fault counts) are deterministic for a fixed seed: a rerun must
  reproduce them exactly, and the harness's invariants assert on them.
* **Wall-clock** metrics (seconds per scenario, simulator-kernel events
  processed per wall second) measure the implementation itself and vary
  run to run; they are reported, never gated.  The kernel event count
  behind them is exact, and the tier-1 suite pins it per scenario
  (``tests/obs/test_bench.py``), so a protocol change that moves the
  work per operation fails there.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.autonomic.qopt import attach_qopt
from repro.common.config import (
    AutonomicConfig,
    ClientConfig,
    ClusterConfig,
    ProxyConfig,
    QuorumConfig,
)
from repro.common.errors import ReproError
from repro.common.types import NodeId
from repro.obs.context import Observability
from repro.obs.exporters import to_chrome_trace_json
from repro.obs.metrics import HistogramSnapshot
from repro.obs.trace import TraceQuery
from repro.oracle.service import QuorumOracle
from repro.sds.cluster import SwiftCluster
from repro.sim.nemesis import Nemesis
from repro.workloads import ycsb

#: Schema tag written into every BENCH_obs.json.
SCHEMA = "qopt-bench/1"

#: The per-phase histograms surfaced in the report, in output order.
PHASES: Tuple[Tuple[str, str], ...] = (
    ("gather-p1", "gather_p1"),
    ("gather-p2", "gather_p2"),
    ("stabilise", "stabilise"),
    ("reconfig-change", "reconfig_change"),
    ("reconfig-quarantine", "reconfig_quarantine"),
)


class BenchInvariantError(ReproError):
    """A scenario violated one of the harness's pinned invariants."""


@dataclass(frozen=True)
class Scenario:
    """One pinned cell of the benchmark matrix."""

    name: str
    #: ``"workload"`` (plain YCSB run), ``"chaos"`` (partition nemesis)
    #: or ``"reconfig"`` (self-tuning control plane attached).
    kind: str
    #: YCSB workload letter: ``"a"``, ``"b"`` or ``"c"``.
    workload: str
    #: Initial (read, write) quorum sizes.
    quorum: Tuple[int, int]
    #: Simulated duration in seconds.
    duration: float


#: Always-on scenarios (the ``--quick`` matrix).  The chaos and
#: reconfig scenarios double as the acceptance checks for trace/fault
#: correlation and reconfiguration phase metrics.
QUICK_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("ycsb-a-r3w3", "workload", "a", (3, 3), 2.0),
    Scenario("chaos-partition", "chaos", "a", (3, 3), 2.4),
    Scenario("reconfig-qopt", "reconfig", "a", (3, 3), 4.0),
)

#: Extra cells for the full matrix (``--quick`` omitted).
FULL_EXTRA_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("ycsb-a-r2w4", "workload", "a", (2, 4), 2.0),
    Scenario("ycsb-b-r3w3", "workload", "b", (3, 3), 2.0),
    Scenario("ycsb-b-r2w4", "workload", "b", (2, 4), 2.0),
    Scenario("ycsb-c-r3w3", "workload", "c", (3, 3), 2.0),
    Scenario("ycsb-c-r2w4", "workload", "c", (2, 4), 2.0),
)


class _FixedWriteModel:
    """Oracle stub that always predicts the same write-quorum size.

    Satisfies the duck type :class:`~repro.oracle.service.QuorumOracle`
    expects (``fitted`` flag plus ``predict_one``), without the offline
    training sweep — the bench only needs the control plane to *move*,
    deterministically, not to be smart.
    """

    fitted = True

    def __init__(self, write_quorum: int) -> None:
        self._write_quorum = write_quorum

    def predict_one(self, features: Any) -> int:
        return self._write_quorum


def _workload_source(letter: str, seed: int) -> Any:
    builders = {
        "a": ycsb.workload_a,
        "b": ycsb.workload_b,
        "c": ycsb.workload_c_paper,
    }
    spec = builders[letter](object_size=4096, num_objects=32)
    return ycsb.build(spec, seed=seed + 1)


def _cluster_config(scenario: Scenario) -> ClusterConfig:
    """The pinned small test-bed: 5 storage nodes, 2 proxies."""
    extras: Dict[str, Any] = {}
    if scenario.kind == "chaos":
        # Short deadlines so timeouts/retries fit inside the scenario:
        # with 3 of 5 storage nodes isolated neither quorum of 3 is
        # reachable, so gathers must time out quickly and clients must
        # get several retry attempts before the partition heals.
        extras["proxy"] = ProxyConfig(
            fallback_timeout=0.08,
            gather_deadline=0.2,
            max_gather_attempts=2,
        )
        extras["client"] = ClientConfig(
            attempt_timeout=0.5,
            max_attempts=6,
            backoff_base=0.04,
            backoff_cap=0.2,
        )
    return ClusterConfig(
        num_storage_nodes=5,
        num_proxies=2,
        clients_per_proxy=3,
        replication_degree=5,
        initial_quorum=QuorumConfig(
            read=scenario.quorum[0], write=scenario.quorum[1]
        ),
        **extras,
    )


def _run_scenario(
    scenario: Scenario, seed: int
) -> Tuple[Dict[str, Any], Observability, SwiftCluster, float]:
    """Run one cell; returns (sim-metrics, obs, cluster, wall seconds)."""
    obs = Observability(tracing=True)
    cluster = SwiftCluster(
        config=_cluster_config(scenario), seed=seed, obs=obs
    )
    cluster.add_clients(_workload_source(scenario.workload, seed))

    if scenario.kind == "chaos":
        nemesis = Nemesis.for_cluster(cluster, seed=seed)
        nemesis.schedule_isolation(
            at=0.8,
            duration=0.6,
            nodes=[NodeId.storage(index) for index in (0, 1, 2)],
        )
    elif scenario.kind == "reconfig":
        # A fixed oracle that always wants W=4 while the cluster starts
        # at (R=3, W=3) guarantees at least one fine- and one
        # coarse-grained reconfiguration, exercising the epoch-change
        # and quarantine phases; the post-change reads of versions
        # written under the old configuration then trigger p2 repair
        # gathers.
        attach_qopt(
            cluster,
            autonomic_config=AutonomicConfig(
                top_k=4,
                round_duration=0.6,
                gamma=1,
                theta=0.0,
                quarantine=0.25,
            ),
            oracle=QuorumOracle(
                replication_degree=cluster.config.replication_degree,
                model=_FixedWriteModel(4),
            ),
        )

    wall_start = time.perf_counter()
    cluster.run(scenario.duration)
    wall_seconds = time.perf_counter() - wall_start

    read_summary = obs.client_read.snapshot().as_dict()
    write_summary = obs.client_write.snapshot().as_dict()
    sim: Dict[str, Any] = {
        "duration": scenario.duration,
        "throughput_ops_per_sec": round(
            cluster.log.total_operations / scenario.duration, 6
        ),
        "completed_ops": cluster.log.total_operations,
        "client_retries": obs.client_retries.value,
        "client_failures": obs.client_failures.value,
        "gather_timeouts": obs.gather_timeouts.value,
        "nemesis_faults": obs.faults.value,
        "client_read": read_summary,
        "client_write": write_summary,
    }
    return sim, obs, cluster, wall_seconds


def _check_invariants(
    scenario: Scenario, sim: Dict[str, Any], obs: Observability
) -> None:
    """Assert the pinned per-scenario invariants (simulated data only)."""
    if scenario.kind == "workload" and sim["throughput_ops_per_sec"] <= 0:
        raise BenchInvariantError(
            f"{scenario.name}: no completed operations"
        )
    if scenario.kind == "chaos":
        if sim["client_retries"] <= 0:
            raise BenchInvariantError(
                f"{scenario.name}: partition caused no client retries"
            )
        if sim["nemesis_faults"] <= 0:
            raise BenchInvariantError(
                f"{scenario.name}: nemesis recorded no faults"
            )
        overlaps = TraceQuery(obs.tracer).fault_overlaps("client.attempt")
        if not overlaps:
            raise BenchInvariantError(
                f"{scenario.name}: no nemesis fault annotation overlaps "
                "a client.attempt span"
            )
    if scenario.kind == "reconfig":
        if obs.reconfig_change.count < 1:
            raise BenchInvariantError(
                f"{scenario.name}: no reconfiguration completed"
            )
        if obs.reconfig_quarantine.count < 1:
            raise BenchInvariantError(
                f"{scenario.name}: no quarantine period observed"
            )
        if obs.gather_p2.count < 1:
            raise BenchInvariantError(
                f"{scenario.name}: no repair (p2) gathers after the "
                "quorum change"
            )


def _check_phase_ordering(phases: Dict[str, Dict[str, Any]]) -> None:
    for name, summary in phases.items():
        if summary["count"] == 0:
            continue
        if not (
            summary["p50"] <= summary["p95"] <= summary["p99"]
        ):
            raise BenchInvariantError(
                f"phase {name}: percentiles not monotone: {summary}"
            )


def run_bench(
    quick: bool = False,
    seed: int = 0,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the scenario matrix and return the BENCH_obs report dict."""
    scenarios: List[Scenario] = list(QUICK_SCENARIOS)
    if not quick:
        scenarios.extend(FULL_EXTRA_SCENARIOS)

    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "quick": quick,
        "seed": seed,
        "scenarios": {},
        "phases": {},
        "kernel": {},
    }
    merged_phases: Dict[str, Optional[HistogramSnapshot]] = {
        name: None for name, _ in PHASES
    }
    total_events = 0
    total_wall = 0.0

    for scenario in scenarios:
        sim, obs, cluster, wall_seconds = _run_scenario(scenario, seed)
        _check_invariants(scenario, sim, obs)
        events = cluster.sim.events_processed
        total_events += events
        total_wall += wall_seconds
        report["scenarios"][scenario.name] = {
            "kind": scenario.kind,
            "sim": sim,
            "wall": {
                "seconds": round(wall_seconds, 4),
                "events": events,
                "events_per_second": round(events / wall_seconds, 1)
                if wall_seconds > 0
                else 0.0,
            },
        }
        for name, attr in PHASES:
            snapshot = getattr(obs, attr).snapshot()
            previous = merged_phases[name]
            merged_phases[name] = (
                snapshot if previous is None else previous.merged(snapshot)
            )
        if trace_path and scenario.kind == "chaos":
            with open(trace_path, "w", encoding="utf-8") as handle:
                handle.write(to_chrome_trace_json(obs.tracer))

    report["phases"] = {
        name: snapshot.as_dict()
        for name, snapshot in merged_phases.items()
        if snapshot is not None
    }
    _check_phase_ordering(report["phases"])
    report["kernel"] = {
        "events": total_events,
        "wall_seconds": round(total_wall, 4),
        "events_per_second": round(total_events / total_wall, 1)
        if total_wall > 0
        else 0.0,
    }
    return report


def _write_profile(profiler: cProfile.Profile, path: str) -> None:
    """Dump the pstats table to ``path`` and print the top-3 by tottime."""
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("tottime").print_stats(40)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(stream.getvalue())
    hottest = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda item: item[1][2],
        reverse=True,
    )[:3]
    print("top-3 hot functions (tottime):")
    for (filename, lineno, funcname), row in hottest:
        calls, tottime = row[1], row[2]
        print(
            f"  {funcname} ({filename}:{lineno}) "
            f"{tottime:.3f}s over {calls} calls"
        )
    print(f"wrote profile {path}")


def run_command(args: argparse.Namespace) -> int:
    """Run a parsed ``bench`` command line; returns the exit code."""
    profiler: Optional[cProfile.Profile] = None
    if args.profile:
        profiler = cProfile.Profile()
        profiler.enable()

    report = run_bench(
        quick=args.quick, seed=args.seed, trace_path=args.trace
    )

    if profiler is not None:
        profiler.disable()

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, cell in report["scenarios"].items():
        sim = cell["sim"]
        wall = cell["wall"]
        print(
            f"{name}: {sim['throughput_ops_per_sec']:.1f} ops/s sim, "
            f"{wall['events_per_second']:.0f} kernel events/s wall"
        )
    print(
        f"kernel total: {report['kernel']['events']} events in "
        f"{report['kernel']['wall_seconds']}s wall "
        f"({report['kernel']['events_per_second']:.0f}/s)"
    )
    print(f"wrote {args.output}")
    if profiler is not None:
        _write_profile(profiler, args.profile)
    return 0
