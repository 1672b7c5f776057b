"""One live run: boot a real ``LocalCluster``, load it, measure from outside.

No message delay is injected and ``live_storage_config()`` zeroes the
disk model, so every latency here is processor + scheduler time.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.rng import substream
from repro.common.types import NodeId, OpType
from repro.metrics.collector import OperationLog
from repro.net.cluster import LocalCluster
from repro.net.httpd import http_get
from repro.net.kernel import RealtimeKernel
from repro.net.spec import ClusterSpec, build_spec
from repro.net.tcp import TcpTransport
from repro.obs.exporters import parse_prometheus_text
from repro.sds.client import ClientNode, OperationRecord, OperationSource
from repro.sds.consistency import HistoryChecker, SearchBudgetExceeded

from . import settings, stats
from .payload import PaddedSource, check_wire_size, compact
from .settings import WorkloadDef

#: Scratch space inside the checkout (cluster specs, WAL directories).
WORK_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".work"
)

Metrics = Dict[str, Tuple[float, str]]


def scratch_dir(prefix: str) -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)


def make_source(defn: WorkloadDef, seed: int) -> PaddedSource:
    source = PaddedSource(
        write_ratio=defn.write_ratio,
        object_size=defn.object_size,
        objects=settings.OBJECTS,
        skew=settings.ZIPF,
        seed=seed,
    )
    check_wire_size(source, seed)
    return source


def make_spec(defn: WorkloadDef, seed: int, data_dir: str) -> ClusterSpec:
    return build_spec(
        replicas=settings.REPLICAS,
        proxies=settings.PROXIES,
        write_quorum=defn.write_quorum,
        seed=seed,
        data_dir=data_dir,
        lease_duration=defn.lease_duration,
    )


# -- cluster -----------------------------------------------------------------


async def boot(
    defn: WorkloadDef, seed: int
) -> Tuple[LocalCluster, str, float]:
    """Start a cluster; returns it, its scratch dir and the set-up time.

    Set-up ends when every ``/healthz`` answers 200 and a TCP connection
    to the proxy's transport port is accepted.
    """
    # LocalCluster hands workers a copy of this process's environment.
    os.environ["PYTHONHASHSEED"] = "0"
    workdir = scratch_dir("cluster-")
    begin = time.perf_counter()
    cluster = LocalCluster(
        make_spec(defn, seed, os.path.join(workdir, "data")),
        workdir=workdir,
    )
    cluster.start()
    try:
        await cluster.wait_healthy()
        proxy = cluster.spec.proxies[0]
        _, writer = await asyncio.open_connection(proxy.host, proxy.port)
        writer.close()
    except BaseException:
        reap(cluster)
        raise
    return cluster, workdir, time.perf_counter() - begin


def reap(cluster: LocalCluster) -> None:
    """Kill whatever still runs and wait until each worker has ended."""
    cluster.kill()
    for worker in cluster.workers:
        worker.process.wait()


async def measure_setup(
    defn: WorkloadDef, seed: int, boots: int
) -> Tuple[LocalCluster, str, List[float]]:
    """Boot ``boots`` times, keeping the last cluster up for the run."""
    times: List[float] = []
    for index in range(boots):
        cluster, workdir, took = await boot(defn, seed)
        times.append(took)
        if index < boots - 1:
            await cluster.shutdown()
            shutil.rmtree(workdir, ignore_errors=True)
    return cluster, workdir, times


# -- load --------------------------------------------------------------------


def make_fleet(
    kernel: RealtimeKernel,
    transport: TcpTransport,
    spec: ClusterSpec,
    source_for: Callable[[NodeId], OperationSource],
    seed: int,
    recorder: Callable[[OperationRecord], None],
) -> List[ClientNode]:
    """The closed loop: CLIENTS nodes x DEPTH slots on one connection."""
    proxy = spec.proxy_ids()[0]
    log = OperationLog()
    return [
        ClientNode(
            kernel,
            transport,
            NodeId.client(index),
            proxy_id=proxy,
            workload=source_for(NodeId.client(index)),
            rng=substream(seed, "client", index),
            log=log,
            recorder=recorder,
            policy=spec.client,
            pipeline_depth=settings.DEPTH,
        )
        for index in range(settings.CLIENTS)
    ]


@dataclass
class Boundary:
    """What is read at one edge of the measured phase."""

    at: float
    cpu: Dict[str, float]
    rss: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    flushes: int = 0
    frames_flushed: int = 0
    retries: int = 0


async def run_phase(
    fleet: Sequence[ClientNode],
    kernel: RealtimeKernel,
    warmup: float,
    seconds: float,
    boundary: Callable[[], Awaitable[Boundary]],
) -> Tuple[Boundary, Boundary, int]:
    """Warm up, measure ``seconds``, drain; returns both edges and the
    number of operations still unfinished at the drain deadline."""
    for client in fleet:
        client.start()
    await asyncio.sleep(warmup)
    first = await boundary()
    await asyncio.sleep(max(0.0, first.at + seconds - kernel.tick()))
    last = await boundary()
    for client in fleet:
        client.stop_issuing()
    deadline = kernel.tick() + settings.DRAIN_S
    while (
        any(client.inflight_operations for client in fleet)
        and kernel.tick() < deadline
    ):
        await asyncio.sleep(0.02)
    unfinished = sum(client.inflight_operations for client in fleet)
    for client in fleet:
        client.crash()
    return first, last, unfinished


async def retune(
    spec: ClusterSpec,
    defn: WorkloadDef,
    kernel: RealtimeKernel,
    done: List[Tuple[float, float]],
) -> None:
    """Flip W between 2 and the boot quorum on a fixed grid, forever."""
    manager = spec.manager
    loop = asyncio.get_running_loop()
    origin = loop.time()
    flip = 1
    while True:
        await asyncio.sleep(
            max(0.0, origin + flip * defn.retune_period - loop.time())
        )
        target = 2 if flip % 2 else defn.write_quorum
        begin = kernel.tick()
        status, body = await http_get(
            manager.host,
            manager.http_port,
            f"/reconfig?write={target}",
            timeout=30.0,
        )
        if status != 200:
            raise RuntimeError(f"/reconfig answered {status}: {body!r}")
        finished = kernel.tick()
        done.append((finished, finished - begin))
        flip += 1


# -- result ------------------------------------------------------------------


def _sample(samples: Dict[str, float], name: str, *labels: str) -> float:
    """Sum of the series of family ``name`` carrying every label text."""
    return sum(
        value
        for series, value in samples.items()
        if series.partition("{")[0] == name
        and all(label in series for label in labels)
    )


def role_of(worker: str) -> str:
    """``storage-3`` -> ``storage``; the loadgen has no index."""
    head = worker.rpartition("-")[0]
    return {"reconfig-manager": "manager", "": worker}.get(head, head)


@dataclass
class PhaseStats:
    """Client-side view of one measured phase (live or in-process)."""

    seconds: float
    window: float
    completed: int
    reads: List[float]
    writes: List[float]
    windows: List[List[float]]

    @staticmethod
    def of(
        records: Sequence[OperationRecord],
        start: float,
        end: float,
        window: float,
    ) -> "PhaseStats":
        reads: List[float] = []
        writes: List[float] = []
        samples: List[Tuple[float, float]] = []
        for record in records:
            if not start <= record.completed_at < end:
                continue
            latency = record.completed_at - record.invoked_at
            samples.append((record.completed_at, latency))
            (reads if record.op_type is OpType.READ else writes).append(
                latency
            )
        count = max(1, round((end - start) / window))
        return PhaseStats(
            seconds=end - start,
            window=window,
            completed=len(samples),
            reads=reads,
            writes=writes,
            windows=stats.cut_windows(samples, start, window, count),
        )

    @property
    def ops_per_s(self) -> float:
        return stats.median_window_rate(self.windows, self.window)


@dataclass
class LiveResult:
    defn: WorkloadDef
    phase: PhaseStats
    first: Boundary
    last: Boundary
    boots: List[float]
    reconfigs: List[float]
    attempted: int
    failed: int
    disk_bytes: int
    check_wall_s: float
    check_records: int
    problems: List[str]

    # -- deltas over the phase ----------------------------------------------

    def cpu_by_role(self) -> Dict[str, float]:
        """CPU seconds spent in the phase, per role."""
        spent: Dict[str, float] = {
            "proxy": 0.0, "storage": 0.0, "manager": 0.0, "loadgen": 0.0
        }
        for worker, after in self.last.cpu.items():
            spent[role_of(worker)] += after - self.first.cpu[worker]
        return spent

    def delta(self, role: str, name: str, *labels: str) -> float:
        """Growth of a ``/metrics`` family over the phase, summed over
        the workers of ``role``."""
        return sum(
            _sample(after, name, *labels)
            - _sample(self.first.metrics[worker], name, *labels)
            for worker, after in self.last.metrics.items()
            if role_of(worker) == role
        )

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> Metrics:
        phase = self.phase
        cpu = sum(self.cpu_by_role().values())
        return {
            "ops_per_s": (phase.ops_per_s, "ops/s"),
            "read_p50_ms": (statistics.median(phase.reads) * 1e3, "ms"),
            "write_p50_ms": (statistics.median(phase.writes) * 1e3, "ms"),
            "cpu_ms_per_op": (cpu / phase.completed * 1e3, "ms"),
            "rss_mb": (sum(self.last.rss.values()) / 1e6, "MB"),
            "setup_s": (statistics.median(self.boots), "s"),
        }

    def layers(self) -> Metrics:
        phase = self.phase
        ops = float(phase.completed)
        kops = ops / 1e3
        seconds = phase.seconds
        cpu = self.cpu_by_role()
        cores = float(os.cpu_count() or 1)
        busiest_replica = max(
            after - self.first.cpu[worker]
            for worker, after in self.last.cpu.items()
            if role_of(worker) == "storage"
        )
        total_share = sum(cpu.values()) / seconds
        loadgen_share = cpu["loadgen"] / seconds
        flushes = self.last.flushes - self.first.flushes
        frames = self.last.frames_flushed - self.first.frames_flushed
        sent = "direction=\"sent\""
        hits = self.delta("proxy", "qopt_lease_read_hits_total")
        out: Metrics = {
            f"{role}.cpu_ms_per_op": (spent / ops * 1e3, "ms")
            for role, spent in cpu.items()
        }
        out.update({
            # Reported, not bounded: neighbour bursts on a 2-core VM move
            # the tail 1.5x as much as the median (see README).
            "op_p99_ms": (
                stats.median_window_percentile(phase.windows, 0.99) * 1e3,
                "ms",
            ),
            "proxy.cpu_share": (cpu["proxy"] / seconds, "cores"),
            "storage.cpu_share_max": (busiest_replica / seconds, "cores"),
            "loadgen.cpu_share": (loadgen_share, "cores"),
            "total.cpu_share": (total_share, "cores"),
            "cores": (cores, "count"),
            "harness_limited": (
                float(loadgen_share >= 0.8 or total_share >= 0.95 * cores),
                "count",
            ),
            "proxy.kernel_events_per_op": (
                self.delta("proxy", "qopt_kernel_events_total") / ops, "1/op"
            ),
            "storage.kernel_events_per_op": (
                self.delta("storage", "qopt_kernel_events_total") / ops,
                "1/op",
            ),
            "proxy.msgs_sent_per_op": (
                self.delta("proxy", "qopt_transport_messages_total", sent)
                / ops,
                "1/op",
            ),
            "storage.msgs_sent_per_op": (
                self.delta("storage", "qopt_transport_messages_total", sent)
                / ops,
                "1/op",
            ),
            "loadgen.flushes_per_op": (flushes / ops, "1/op"),
            "loadgen.frames_per_flush": (frames / max(1, flushes), "count"),
            "client.retries_per_kop": (
                (self.last.retries - self.first.retries) / kops, "1/kop"
            ),
            "wal.records_per_op": (
                self.delta("storage", "qopt_wal_records_total") / ops, "1/op"
            ),
            "wal.fsyncs_per_kop": (
                self.delta("storage", "qopt_wal_fsyncs_total") / kops,
                "1/kop",
            ),
            "wal.snapshots_per_s": (
                self.delta("storage", "qopt_wal_snapshots_total") / seconds,
                "1/s",
            ),
            "wal.disk_mb_end": (self.disk_bytes / 1e6, "MB"),
            # The proxy counts a hit a moment before the client records
            # the read, so the two edges can differ by a few operations.
            "lease.hit_ratio": (
                min(1.0, hits / max(1, len(phase.reads))), "ratio"
            ),
            "lease.acquired_per_kop": (
                self.delta("proxy", "qopt_leases_acquired_total") / kops,
                "1/kop",
            ),
            "lease.breaks_per_kop": (
                self.delta("storage", "qopt_leases_broken_total") / kops,
                "1/kop",
            ),
            "lease.nacks_per_kop": (
                self.delta("storage", "qopt_lease_nacks_total") / kops,
                "1/kop",
            ),
            "reconfig.count": (float(len(self.reconfigs)), "count"),
            "reconfig.change_ms_p50": (
                statistics.median(self.reconfigs) * 1e3
                if self.reconfigs else 0.0,
                "ms",
            ),
            "reconfig.change_ms_max": (
                max(self.reconfigs, default=0.0) * 1e3, "ms"
            ),
            "cluster.boot_s_cold": (self.boots[0], "s"),
            "check.wall_s": (self.check_wall_s, "s"),
            "check.records": (float(self.check_records), "count"),
        })
        return out

    def mechanism_problems(self) -> List[str]:
        """Each workload must prove it exercised what it exists for."""
        layers = {name: value for name, (value, _) in self.layers().items()}
        name = self.defn.name
        problems: List[str] = []
        lease_traffic = (
            layers["lease.hit_ratio"]
            + layers["lease.acquired_per_kop"]
            + layers["lease.nacks_per_kop"]
            + self.delta("storage", "qopt_leases_granted_total")
        )
        if self.defn.lease_duration > 0:
            if layers["lease.hit_ratio"] < 0.9:
                problems.append(
                    f"{name}: lease.hit_ratio "
                    f"{layers['lease.hit_ratio']:.3f} < 0.9"
                )
        elif lease_traffic:
            problems.append(f"{name}: lease traffic on a lease-free workload")
        if self.defn.retune_period > 0:
            wanted = int(0.4 * self.phase.seconds)
            if layers["reconfig.count"] < wanted:
                problems.append(
                    f"{name}: {layers['reconfig.count']:.0f} "
                    f"reconfigurations in the phase, need {wanted}"
                )
        if self.defn.mix == "c":
            if layers["wal.snapshots_per_s"] <= 0:
                problems.append(f"{name}: no WAL snapshot fired")
            if layers["storage.cpu_ms_per_op"] <= layers["proxy.cpu_ms_per_op"]:
                problems.append(
                    f"{name}: storage CPU per op does not exceed the proxy's"
                )
        return problems


def check_history(
    records: Sequence[OperationRecord],
) -> Tuple[List[str], float]:
    """Consistency + Wing-Gong over the whole history."""
    begin = time.perf_counter()
    checker = HistoryChecker(list(records))
    problems: List[str] = []
    violations = checker.check()
    if violations:
        problems.append(
            f"{len(violations)} consistency violations, first: {violations[0]}"
        )
    try:
        broken = checker.check_linearizable(max_states=settings.MAX_STATES)
        if broken:
            problems.append(
                f"history is not linearizable, first: {broken[0]}"
            )
    except SearchBudgetExceeded:
        problems.append("linearizability unverified: search budget exceeded")
    return problems, time.perf_counter() - begin


def directory_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass  # a snapshot's tmp file may vanish mid-walk
    return total


async def run_live(
    defn: WorkloadDef,
    seed: int,
    seconds: float,
    window: float = settings.WINDOW_S,
    warmup: float = settings.WARMUP_S,
    boots: int = settings.BOOTS,
) -> LiveResult:
    """Boot, load and tear down one workload's cluster; never leaves a
    worker process behind."""
    source = make_source(defn, seed)
    cluster, workdir, boot_times = await measure_setup(defn, seed, boots)
    problems: List[str] = []
    records: List[OperationRecord] = []
    reconfigs: List[Tuple[float, float]] = []
    try:
        spec = cluster.spec
        kernel = RealtimeKernel()
        transport = TcpTransport(
            kernel,
            spec.directory(),
            listen_port=None,
            rng=substream(seed, "loadgen", "transport"),
        )
        await transport.start()
        fleet = make_fleet(
            kernel,
            transport,
            spec,
            lambda _client: source,
            seed,
            lambda record: records.append(compact(record)),
        )

        async def boundary() -> Boundary:
            at = kernel.tick()
            cpu = {"loadgen": time.process_time()}
            rss: Dict[str, float] = {}
            for worker in cluster.workers:
                usage = worker.resources()
                if usage is None:
                    raise RuntimeError(f"{worker.name} died during the run")
                cpu[worker.name] = usage["cpu_seconds"]
                rss[worker.name] = usage["rss_bytes"]
            pages = await asyncio.gather(*(
                http_get(a.host, a.http_port, "/metrics", timeout=10.0)
                for a in spec.all_addresses()
            ))
            return Boundary(
                at=at,
                cpu=cpu,
                rss=rss,
                metrics={
                    address.name: parse_prometheus_text(body)
                    for address, (_status, body) in zip(
                        spec.all_addresses(), pages
                    )
                },
                flushes=transport.flushes,
                frames_flushed=transport.frames_flushed,
                retries=sum(client.operation_retries for client in fleet),
            )

        tuner: Optional[asyncio.Task] = None
        if defn.retune_period > 0:
            tuner = asyncio.ensure_future(
                retune(spec, defn, kernel, reconfigs)
            )
        try:
            first, last, unfinished = await run_phase(
                fleet, kernel, warmup, seconds, boundary
            )
        finally:
            if tuner is not None:
                if tuner.done() and tuner.exception() is not None:
                    problems.append(f"retune task: {tuner.exception()!r}")
                tuner.cancel()
            await transport.stop()
        disk_bytes = directory_bytes(spec.data_dir or workdir)
        if kernel.crashes:
            problems.append(
                f"{len(kernel.crashes)} loadgen processes crashed, first: "
                f"{kernel.crashes[0][1]!r}"
            )
        for worker in cluster.dead_workers():
            problems.append(f"{worker.name} died during the run")
        for name, code in (await cluster.shutdown()).items():
            if code != 0:
                problems.append(f"{name} exited with code {code}")
    finally:
        reap(cluster)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(client.operations_failed for client in fleet) + unfinished
    completed = sum(
        1 for record in records if record.completed_at != float("inf")
    )
    if failed:
        problems.append(f"{failed} operations failed or never finished")
    history_problems, check_wall_s = check_history(records)
    problems.extend(history_problems)
    result = LiveResult(
        defn=defn,
        phase=PhaseStats.of(records, first.at, last.at, window),
        first=first,
        last=last,
        boots=boot_times,
        reconfigs=[
            took for at, took in reconfigs if first.at <= at < last.at
        ],
        attempted=completed + failed,
        failed=failed,
        disk_bytes=disk_bytes,
        check_wall_s=check_wall_s,
        check_records=len(records),
        problems=problems,
    )
    if not problems:
        result.problems.extend(result.mechanism_problems())
    return result
