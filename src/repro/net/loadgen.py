"""Closed-loop load generator, live-run harness and its one run report.

Runs the *simulator's* :class:`~repro.sds.client.ClientNode` fleet — the
same closed-loop, deadline-and-retry client code — on a
:class:`RealtimeKernel` over TCP against a live cluster, in one or more
timed phases.  Between phases it can drive a live two-phase quorum
reconfiguration through the manager's HTTP endpoint, YCSB-style:

* per-phase ops/sec and latency percentiles (p50/p95/p99) per op type;
* a client-observed :class:`~repro.sds.client.OperationRecord` history
  spanning *all* phases, Wing-Gong-checked per shard — the live analogue
  of the simulator's consistency gates;
* a ``BENCH_net.json`` report in the same spirit as ``BENCH_obs.json``.

Every live harness (``loadgen``, ``livesmoke``, ``livechaos`` and the
scale-out rings) produces the same :class:`LoadgenResult`; the ones that
boot their own cluster do it through :func:`run_live`, and add their own
verdicts through a :class:`HarnessChecks`.

Write values are tagged with a per-phase prefix on top of the workload's
globally-unique tokens, so the cross-phase history keeps the unique-value
property the checker relies on.
"""

from __future__ import annotations

import asyncio
import json
import random
import re
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
)

from repro.common.rng import substream
from repro.common.types import NodeId, OpType
from repro.metrics.collector import OperationLog, percentile
from repro.net.cluster import LocalCluster
from repro.net.httpd import http_get, wait_healthy
from repro.net.kernel import RealtimeKernel
from repro.net.spec import ClusterSpec
from repro.net.tcp import TcpTransport
from repro.obs.exporters import parse_prometheus_text
from repro.obs.metrics import Histogram, HistogramSnapshot
from repro.sds.client import ClientNode, OperationRecord, OperationSource
from repro.sds.consistency import HistoryChecker, SearchBudgetExceeded
from repro.shard.router import ShardRouter
from repro.workloads import ycsb
from repro.workloads.base import Operation, Workload

#: A parsed ``/metrics`` page: ``{series: value}``.
Samples = Dict[str, float]


@dataclass(frozen=True)
class _PhaseTaggedSource:
    """Wrap a workload so write values are unique across phases."""

    inner: OperationSource
    tag: bytes

    def next_operation(self, rng: random.Random) -> Operation:
        operation = self.inner.next_operation(rng)
        if operation.op_type is OpType.WRITE:
            return replace(operation, value=self.tag + operation.value)
        return operation


@dataclass
class PhaseResult:
    """What one timed load phase measured."""

    name: str
    write_quorum: int
    duration: float
    operations: int
    ops_per_sec: float
    failed: int
    retries: int
    latencies: Dict[str, Dict[str, float]]
    #: Completed operations per shard (empty for single-ring runs).
    shard_operations: Dict[str, int] = field(default_factory=dict)
    #: Per-op-type mergeable latency histograms for this phase.  These —
    #: not the per-phase percentiles — are what cross-phase/cross-shard
    #: aggregation consumes: percentiles do not average.
    snapshots: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def as_dict(self) -> dict:
        payload = {
            "name": self.name,
            "write_quorum": self.write_quorum,
            "duration_s": round(self.duration, 3),
            "operations": self.operations,
            "ops_per_sec": round(self.ops_per_sec, 1),
            "failed": self.failed,
            "retries": self.retries,
            "latency_s": self.latencies,
        }
        if self.shard_operations:
            payload["shard_operations"] = dict(
                sorted(self.shard_operations.items())
            )
            payload["shard_ops_per_sec"] = {
                shard: round(count / self.duration, 1)
                if self.duration > 0
                else 0.0
                for shard, count in sorted(self.shard_operations.items())
            }
        return payload


@dataclass(frozen=True)
class ShardOutcome:
    """Per-shard consistency verdict over the cross-phase history."""

    shard: str
    records: int
    violations: int
    linearizable: Optional[bool]

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "records": self.records,
            "violations": self.violations,
            "linearizable": self.linearizable,
        }


def merged_latency_summary(
    snapshots: List[HistogramSnapshot],
) -> Dict[str, object]:
    """Aggregate latency summary from mergeable histogram snapshots.

    This is THE way to combine phases or shards: bucket counts add, then
    percentiles come from the combined distribution.  Averaging per-phase
    percentiles is wrong whenever the phases differ (the average of two
    p99s is not the p99 of the union), which is exactly the regime a
    reconfiguration benchmark lives in.
    """
    live = [s for s in snapshots if s.count]
    if not live:
        return {"count": 0}
    merged = live[0]
    for snapshot in live[1:]:
        merged = merged.merged(snapshot)
    summary = merged.as_dict()
    return {
        key: round(value, 6) if isinstance(value, float) else value
        for key, value in summary.items()
    }


def metric_value(
    samples: Samples, family: str, *labels: str
) -> Optional[float]:
    """Sum of the series of ``family`` in a parsed ``/metrics`` page that
    carry every label text (e.g. ``'node="storage-2"'``); ``None`` when
    no series matches."""
    matches = [
        value
        for series, value in samples.items()
        if series.partition("{")[0] == family
        and all(label in series for label in labels)
    ]
    return sum(matches) if matches else None


class HarnessChecks:
    """What a harness adds to the one run report.

    :meth:`LoadgenResult.problems`, :meth:`LoadgenResult.render` and
    :meth:`LoadgenResult.as_dict` derive the phase, history and worker
    verdicts themselves, then append what the attached checks add.  This
    base adds nothing: it is what a plain ``loadgen`` run carries.
    """

    title = "loadgen"

    def tolerates_failures(self, phase: PhaseResult) -> bool:
        """Whether ``phase``'s failed client operations pass the run."""
        del phase
        return False

    def verdicts(self, result: LoadgenResult) -> List[str]:
        """Problems beyond the run report's own."""
        del result
        return []

    def json_fields(self, result: LoadgenResult) -> Dict[str, object]:
        """Top-level report fields beyond the run report's own."""
        del result
        return {}

    def render_lines(self, result: LoadgenResult) -> List[str]:
        """Summary lines beyond the run report's own."""
        del result
        return []


@dataclass
class LoadgenResult:
    """Full outcome of one live run: the only run report."""

    phases: List[PhaseResult]
    reconfig_seconds: Optional[float]
    #: Wing-Gong verdict per shard; a single-ring run is one ``shard-0``.
    shard_outcomes: List[ShardOutcome]
    records: List[OperationRecord] = field(default_factory=list)
    #: Worker exit codes, workers found dead before shutdown and their
    #: last RSS/CPU snapshot; empty when the cluster was not booted by
    #: :func:`run_live`.
    exit_codes: Dict[str, int] = field(default_factory=dict)
    dead_workers: List[str] = field(default_factory=list)
    resources: Dict[str, Optional[Dict[str, float]]] = field(
        default_factory=dict
    )
    checks: HarnessChecks = field(default_factory=HarnessChecks)

    @property
    def history_records(self) -> int:
        return sum(outcome.records for outcome in self.shard_outcomes)

    @property
    def consistency_violations(self) -> int:
        return sum(outcome.violations for outcome in self.shard_outcomes)

    @property
    def linearizable(self) -> Optional[bool]:
        verdicts = [outcome.linearizable for outcome in self.shard_outcomes]
        if any(verdict is False for verdict in verdicts):
            return False
        if any(verdict is None for verdict in verdicts):
            return None
        return True

    def problems(self) -> List[str]:
        """Everything that must fail the run, as human-readable strings.

        This is the single source of truth for the CLI exit code and the
        ``ok`` field of the JSON report, so a failed run can never look
        green to CI.  ``linearizable=None`` (search budget exceeded) is a
        problem: "not refuted" is not "verified", and a gate that passes
        on it would silently stop checking as histories grow.
        """
        problems: List[str] = []
        for phase in self.phases:
            if phase.operations == 0:
                problems.append(
                    f"phase {phase.name} completed zero operations"
                )
            if phase.failed and not self.checks.tolerates_failures(phase):
                problems.append(
                    f"phase {phase.name}: {phase.failed} client "
                    "operations failed"
                )
        sharded = len(self.shard_outcomes) > 1
        for outcome in self.shard_outcomes:
            where = f"shard {outcome.shard}: " if sharded else ""
            if outcome.violations:
                problems.append(
                    f"{where}{outcome.violations} consistency violations"
                )
            if outcome.linearizable is None:
                problems.append(
                    f"{where}linearizability unverified: search budget "
                    "exceeded"
                )
            elif not outcome.linearizable:
                problems.append(f"{where}history is not linearizable")
        for name in self.dead_workers:
            problems.append(f"{name} died during the run")
        for name, code in sorted(self.exit_codes.items()):
            if code != 0:
                problems.append(f"{name} exited with code {code}")
        problems.extend(self.checks.verdicts(self))
        return problems

    def aggregate_latencies(self) -> Dict[str, Dict[str, object]]:
        """Cross-phase latency summary via histogram merge (never by
        averaging per-phase percentiles)."""
        merged: Dict[str, Dict[str, object]] = {}
        for key in ("read", "write", "all"):
            if key == "all":
                snapshots = [
                    phase.snapshots[name]
                    for phase in self.phases
                    for name in ("read", "write")
                    if name in phase.snapshots
                ]
            else:
                snapshots = [
                    phase.snapshots[key]
                    for phase in self.phases
                    if key in phase.snapshots
                ]
            merged[key] = merged_latency_summary(snapshots)
        return merged

    def as_dict(self) -> dict:
        problems = self.problems()
        payload = {
            "phases": [phase.as_dict() for phase in self.phases],
            "reconfig_seconds": (
                None
                if self.reconfig_seconds is None
                else round(self.reconfig_seconds, 3)
            ),
            "history_records": self.history_records,
            "consistency_violations": self.consistency_violations,
            "linearizable": self.linearizable,
            "aggregate_latency_s": self.aggregate_latencies(),
            "ok": not problems,
            "problems": problems,
        }
        if len(self.shard_outcomes) > 1:
            payload["shard_outcomes"] = [
                outcome.as_dict() for outcome in self.shard_outcomes
            ]
        payload.update(self.checks.json_fields(self))
        return payload

    def render(self) -> str:
        lines = [f"{self.checks.title}:"]
        for phase in self.phases:
            per_shard = "".join(
                f"; {shard}={count}"
                for shard, count in sorted(phase.shard_operations.items())
            )
            latency = "".join(
                f"; {kind} p50 {summary['p50']:.4f}s "
                f"p99 {summary['p99']:.4f}s"
                for kind, summary in sorted(phase.latencies.items())
                if kind != "all" and summary.get("count")
            )
            lines.append(
                f"  phase {phase.name}: {phase.operations} ops "
                f"({phase.ops_per_sec:.0f}/s{per_shard}), "
                f"{phase.failed} failed, {phase.retries} retries{latency}"
            )
        lines.append(
            f"  history: {self.history_records} records, "
            f"{self.consistency_violations} violations, "
            f"linearizable={self.linearizable}"
        )
        if len(self.shard_outcomes) > 1:
            lines.extend(
                f"  {outcome.shard}: {outcome.records} records, "
                f"linearizable={outcome.linearizable}"
                for outcome in self.shard_outcomes
            )
        lines.extend(f"  {line}" for line in self.checks.render_lines(self))
        for name, snapshot in sorted(self.resources.items()):
            if snapshot is not None:
                lines.append(
                    f"  {name}: rss={snapshot['rss_bytes'] / 1e6:.1f}MB "
                    f"cpu={snapshot['cpu_seconds']:.2f}s"
                )
        if self.exit_codes:
            lines.append(f"  exits: {sorted(self.exit_codes.items())}")
        problems = self.problems()
        if problems:
            lines.append("  PROBLEMS:")
            lines.extend(f"    - {problem}" for problem in problems)
        else:
            lines.append("  all checks passed")
        return "\n".join(lines)


def _build_workload(workload: str, object_size: int, objects: int) -> Workload:
    builders = {
        "a": ycsb.workload_a,
        "b": ycsb.workload_b,
        "c": ycsb.workload_c_paper,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r} (use a, b or c)")
    spec = builders[workload](
        object_size=object_size, num_objects=objects
    )
    return ycsb.build(spec, seed=0)


def _summarise(latencies: List[float]) -> Dict[str, float]:
    ordered = sorted(latencies)
    if not ordered:
        return {"count": 0}
    return {
        "count": len(ordered),
        "mean": round(sum(ordered) / len(ordered), 6),
        "p50": round(percentile(ordered, 0.50), 6),
        "p95": round(percentile(ordered, 0.95), 6),
        "p99": round(percentile(ordered, 0.99), 6),
        "max": round(ordered[-1], 6),
    }


class LoadGenerator:
    """Drives phases of closed-loop clients against a live cluster."""

    def __init__(
        self,
        spec: ClusterSpec,
        clients: int = 8,
        workload: str = "a",
        object_size: int = 4096,
        objects: int = 64,
        seed: int = 1,
        pipeline_depth: int = 1,
        injection_rate: float = 0.0,
    ) -> None:
        self.spec = spec
        self.clients = clients
        self.workload_name = workload
        self._workload = _build_workload(workload, object_size, objects)
        self.seed = seed
        #: In-flight logical operations per client (pipelined slots).
        self.pipeline_depth = pipeline_depth
        #: Per-client open-loop injection rate, ops/sec (0 = closed loop).
        self.injection_rate = injection_rate
        self.kernel: Optional[RealtimeKernel] = None
        self.transport: Optional[TcpTransport] = None
        self.records: List[OperationRecord] = []
        #: Wall seconds spent in live reconfigurations (None: none ran).
        self.reconfig_seconds: Optional[float] = None
        self._next_client_index = 0
        #: Per-phase latency samples, collected via the per-phase logs.
        self._phases: List[PhaseResult] = []
        #: Key→shard map (one shard owns every key on a single ring).
        self.shard_map = spec.shard_map()
        #: Shard-aware router, only for fleets of two or more shards:
        #: every client routes each operation key→shard→proxy.  A single
        #: ring keeps the static client→proxy binding.
        self.router: Optional[ShardRouter] = None
        if len(spec.shards) > 1:
            self.router = ShardRouter(
                self.shard_map,
                {shard.name: shard.proxy_ids() for shard in spec.shards},
            )

    @property
    def workload(self) -> Workload:
        """The underlying workload (custom sweeps reuse its object set)."""
        return self._workload

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self.kernel = RealtimeKernel()
        self.transport = TcpTransport(
            self.kernel,
            self.spec.directory(),
            listen_port=None,  # clients only dial out; replies ride back
            rng=substream(self.seed, "loadgen", "transport"),
        )
        await self.transport.start()

    async def stop(self) -> None:
        if self.transport is not None:
            await self.transport.stop()

    async def wait_cluster_healthy(self, deadline: float = 20.0) -> None:
        for address in self.spec.all_addresses():
            await wait_healthy(
                address.host, address.http_port, deadline=deadline
            )

    # -- phases --------------------------------------------------------------

    async def run_phase(
        self,
        name: str,
        duration: float,
        write_quorum: int,
        settle: float = 0.2,
        source: Optional[OperationSource] = None,
    ) -> PhaseResult:
        """Run one timed phase with a fresh client fleet.

        ``source`` overrides the generator's workload for this phase
        (the chaos harness uses it for a read-only verification sweep);
        records still join the same cross-phase history.
        """
        assert self.kernel is not None and self.transport is not None
        kernel = self.kernel
        log = OperationLog()
        phase_records: List[OperationRecord] = []

        def record(op_record: OperationRecord) -> None:
            phase_records.append(op_record)

        source = _PhaseTaggedSource(
            inner=source if source is not None else self._workload,
            tag=f"{name}|".encode("utf-8"),
        )
        proxies = self.spec.proxy_ids()
        fleet: List[ClientNode] = []
        for slot in range(self.clients):
            index = self._next_client_index
            self._next_client_index += 1
            client = ClientNode(
                kernel,
                self.transport,
                NodeId.client(index),
                proxy_id=proxies[slot % len(proxies)],
                workload=source,
                rng=substream(self.seed, "client", index),
                log=log,
                recorder=record,
                policy=self.spec.client,
                pipeline_depth=self.pipeline_depth,
                injection_rate=self.injection_rate,
                router=self.router,
            )
            fleet.append(client)

        start = kernel.tick()
        for client in fleet:
            client.start()
        await asyncio.sleep(duration)
        # Graceful drain: stop issuing and let in-flight operations
        # finish.  A fail-stop here would leave up to depth x clients
        # forever-concurrent (inf-completion) write records per phase,
        # which blows up the linearizability search on pipelined runs.
        for client in fleet:
            client.stop_issuing()
        drain_deadline = kernel.tick() + 3.0
        while (
            any(client.inflight_operations for client in fleet)
            and kernel.tick() < drain_deadline
        ):
            await asyncio.sleep(0.02)
        # Fail-stop stragglers (ops still retrying at the deadline keep
        # their inf-completion records, exactly like a client crash in
        # the simulator).
        for client in fleet:
            client.crash()
        elapsed = kernel.tick() - start
        # Give late replies a moment to drain out of the sockets so they
        # are dropped against crashed mailboxes, not the next phase.
        await asyncio.sleep(settle)

        self.records.extend(phase_records)
        completed = [
            r for r in phase_records if r.completed_at != float("inf")
        ]
        reads = [
            r.completed_at - r.invoked_at
            for r in completed
            if r.op_type is OpType.READ
        ]
        writes = [
            r.completed_at - r.invoked_at
            for r in completed
            if r.op_type is OpType.WRITE
        ]
        # Mergeable per-phase histograms: the only sound input for the
        # cross-phase (and cross-shard) aggregate summary.
        read_hist, write_hist = Histogram(), Histogram()
        for latency in reads:
            read_hist.observe(latency)
        for latency in writes:
            write_hist.observe(latency)
        shard_operations: Dict[str, int] = {}
        if self.router is not None:
            shard_operations = {
                name: 0 for name in self.shard_map.shard_names
            }
            for op_record in completed:
                shard = self.shard_map.shard_of(op_record.object_id)
                shard_operations[shard] += 1
        result = PhaseResult(
            name=name,
            write_quorum=write_quorum,
            duration=elapsed,
            operations=len(completed),
            ops_per_sec=len(completed) / elapsed if elapsed > 0 else 0.0,
            failed=sum(client.operations_failed for client in fleet),
            retries=sum(client.operation_retries for client in fleet),
            latencies={
                "read": _summarise(reads),
                "write": _summarise(writes),
                "all": _summarise(reads + writes),
            },
            shard_operations=shard_operations,
            snapshots={
                "read": read_hist.snapshot(),
                "write": write_hist.snapshot(),
            },
        )
        self._phases.append(result)
        return result

    async def run_quorum_phases(
        self, write_quorums: Sequence[int], duration: float
    ) -> None:
        """One timed ``W=<w>`` phase per write quorum, with a live
        reconfiguration before each phase after the first (and before
        the first when it differs from the spec's initial quorum)."""
        for position, write_quorum in enumerate(write_quorums):
            if position > 0 or (
                write_quorum != self.spec.shards[0].write_quorum
            ):
                await self.reconfigure(write_quorum)
            await self.run_phase(
                name=f"W={write_quorum}",
                duration=duration,
                write_quorum=write_quorum,
            )

    # -- cluster endpoints ---------------------------------------------------

    async def scrape(self) -> Dict[str, Samples]:
        """Every node's ``/metrics`` page, parsed: ``{node: samples}``."""
        scrapes: Dict[str, Samples] = {}
        for address in self.spec.all_addresses():
            status, body = await http_get(
                address.host, address.http_port, "/metrics", timeout=5.0
            )
            if status != 200:
                raise RuntimeError(
                    f"{address.name}: /metrics returned {status}"
                )
            scrapes[address.name] = parse_prometheus_text(body)
        return scrapes

    async def reconfigure(
        self, write_quorum: int, shard: Optional[str] = None
    ) -> float:
        """Drive a live reconfiguration of one shard; returns wall seconds.

        ``shard=None`` targets shard 0 — the whole fleet on a single
        ring.  Its manager runs the two-phase change and the router's
        entry for that shard refreshes from the new epoch.
        """
        assert self.kernel is not None
        target = self.spec.shards[0]
        if shard is not None:
            target = {s.name: s for s in self.spec.shards}[shard]
        manager = target.manager
        begin = self.kernel.tick()
        status, body = await http_get(
            manager.host,
            manager.http_port,
            f"/reconfig?write={write_quorum}",
            timeout=30.0,
        )
        if status != 200:
            raise RuntimeError(
                f"reconfiguration of {target.name} failed: {status} {body!r}"
            )
        if self.router is not None:
            # The manager reports the installed epoch; feeding it to the
            # router is the routing-table refresh for this shard.
            match = re.search(r"epoch=(\d+)", body)
            if match:
                self.router.note_epoch(target.name, int(match.group(1)))
        took = self.kernel.tick() - begin
        self.reconfig_seconds = (self.reconfig_seconds or 0.0) + took
        return took

    async def refresh_routes(self) -> List[str]:
        """Poll every shard manager's ``/healthz`` for its current epoch
        and refresh any routing entries whose shard has moved on.
        Returns the names of the shards that refreshed."""
        if self.router is None:
            return []
        epochs: Dict[str, int] = {}
        for shard in self.spec.shards:
            manager = shard.manager
            status, body = await http_get(
                manager.host, manager.http_port, "/healthz", timeout=5.0
            )
            if status != 200:
                continue
            match = re.search(r"epoch=(-?\d+)", body)
            if match:
                epochs[shard.name] = int(match.group(1))
        return self.router.note_epochs(epochs)

    # -- reporting -----------------------------------------------------------

    def check_history(
        self, max_states: int = 2_000_000
    ) -> List[ShardOutcome]:
        """Consistency + Wing-Gong linearizability, per owning shard.

        Sharding makes the split sound, not just cheaper: objects never
        span shards, linearizability is local to an object's shard, and
        the per-shard verdicts compose into the fleet verdict.  A single
        ring is one ``shard-0`` holding the whole history.  Reads that
        completed without observing any write decode against the
        register's initial value; the checker handles that natively.
        ``linearizable`` is ``None`` when the search budget was
        exceeded.  The budget is sized for pipelined fleets: depth
        ``d`` clients keep ``d`` operations per client concurrent, which
        widens every Wing-Gong chunk the search must clear.
        """
        checkers = {
            name: HistoryChecker() for name in self.shard_map.shard_names
        }
        counts = {name: 0 for name in self.shard_map.shard_names}
        for op_record in self.records:
            shard = self.shard_map.shard_of(op_record.object_id)
            checkers[shard].record(op_record)
            counts[shard] += 1
        outcomes: List[ShardOutcome] = []
        for name in self.shard_map.shard_names:
            checker = checkers[name]
            violations = list(checker.check())
            linearizable: Optional[bool]
            try:
                lin_violations = checker.check_linearizable(
                    max_states=max_states
                )
                linearizable = not lin_violations
                violations.extend(lin_violations)
            except SearchBudgetExceeded:
                linearizable = None  # not refuted, just too costly
            outcomes.append(
                ShardOutcome(
                    shard=name,
                    records=counts[name],
                    violations=len(violations),
                    linearizable=linearizable,
                )
            )
        return outcomes

    def result(self) -> LoadgenResult:
        return LoadgenResult(
            phases=list(self._phases),
            reconfig_seconds=self.reconfig_seconds,
            shard_outcomes=self.check_history(),
            records=list(self.records),
        )


async def run_bench(
    spec: ClusterSpec,
    phases: List[int],
    duration: float = 5.0,
    clients: int = 8,
    workload: str = "a",
    object_size: int = 4096,
    objects: int = 64,
    seed: int = 1,
    pipeline_depth: int = 1,
    injection_rate: float = 0.0,
) -> LoadgenResult:
    """The live benchmark against a running cluster: one timed phase per
    write-quorum in ``phases``, with a live reconfiguration between
    phases."""
    generator = LoadGenerator(
        spec,
        clients=clients,
        workload=workload,
        object_size=object_size,
        objects=objects,
        seed=seed,
        pipeline_depth=pipeline_depth,
        injection_rate=injection_rate,
    )
    await generator.start()
    try:
        await generator.wait_cluster_healthy()
        await generator.run_quorum_phases(phases, duration)
        return generator.result()
    finally:
        await generator.stop()


#: What a harness runs on the booted cluster; returns the checks it adds.
Drive = Callable[[LoadGenerator, LocalCluster], Awaitable[HarnessChecks]]


async def run_live(
    spec: ClusterSpec,
    drive: Drive,
    workdir: Optional[str] = None,
    **load: Any,
) -> LoadgenResult:
    """Boot a local cluster from ``spec``, run ``drive`` against it and
    return the run report; never leaves processes behind.

    The one boot/teardown path behind every self-booting harness: start
    the workers, wait until healthy, start the load generator (``load``
    are its keyword arguments), drive, stop the generator, snapshot
    per-worker resources and dead workers (a worker that died mid-run
    must be reported as such, not folded into the graceful exit codes —
    and its usage is only readable while it is alive), shut down, kill
    whatever is left.  Exit codes and dead workers become problems of
    the returned report; the history is checked after shutdown.
    """
    cluster = LocalCluster(spec, workdir=workdir)
    try:
        cluster.start()
        await cluster.wait_healthy()
        generator = LoadGenerator(cluster.spec, **load)
        await generator.start()
        try:
            checks = await drive(generator, cluster)
        finally:
            await generator.stop()
        resources = {
            worker.name: worker.resources() for worker in cluster.workers
        }
        dead_workers = [worker.name for worker in cluster.dead_workers()]
        exit_codes = await cluster.shutdown()
    finally:
        cluster.kill()
    result = generator.result()
    result.exit_codes = exit_codes
    result.dead_workers = dead_workers
    result.resources = resources
    result.checks = checks
    return result


def write_report(result: LoadgenResult, path: str, extra: dict) -> None:
    """Write the run report as JSON (``BENCH_net*.json``)."""
    payload = dict(extra)
    payload.update(result.as_dict())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


#: A run must reach this fraction of the baseline's ops/sec per phase
#: (mirrors the BENCH_obs perf-smoke gate: generous enough for noisy CI
#: machines, tight enough to catch a real hot-path regression).
BASELINE_FLOOR = 0.7


def check_baseline(
    result: LoadgenResult, baseline_path: str, floor: float = BASELINE_FLOOR
) -> List[str]:
    """Compare per-phase ops/sec against a pinned baseline report.

    Returns human-readable failure strings (empty = gate passed).
    Phases are matched by name; a phase missing from the baseline is
    skipped, so adding phases does not require regenerating it.
    """
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    pinned = {
        phase["name"]: float(phase["ops_per_sec"])
        for phase in baseline.get("phases", [])
    }
    failures: List[str] = []
    for phase in result.phases:
        target = pinned.get(phase.name)
        if target is None or target <= 0:
            continue
        if phase.ops_per_sec < floor * target:
            failures.append(
                f"phase {phase.name}: {phase.ops_per_sec:.1f} ops/s is below "
                f"{floor:.0%} of baseline {target:.1f} ops/s"
            )
    return failures


__all__ = [
    "BASELINE_FLOOR",
    "HarnessChecks",
    "LoadGenerator",
    "LoadgenResult",
    "PhaseResult",
    "ShardOutcome",
    "check_baseline",
    "merged_latency_summary",
    "metric_value",
    "run_bench",
    "run_live",
    "write_report",
]
