"""Local cluster orchestration: N ``serve`` processes on one machine.

:class:`LocalCluster` is the process-level analogue of the simulator's
:class:`~repro.sds.cluster.SwiftCluster`: it allocates real ports,
rewrites the :class:`~repro.net.spec.ClusterSpec`, writes it to disk and
spawns one ``python -m repro serve`` subprocess per protocol node.  Each
node is a genuinely separate OS process talking TCP — there is no shared
memory shortcut — so the topology exercises the same code paths a
multi-host deployment would, minus the physical network.

Shutdown is graceful-then-forceful: ``GET /shutdown`` on every node,
bounded wait, then ``terminate()``/``kill()`` for stragglers.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.net.httpd import http_get
from repro.net.spec import ClusterSpec, NodeAddress


def allocate_ports(spec: ClusterSpec) -> ClusterSpec:
    """Replace every port 0 in the spec with a free ephemeral port.

    All listening sockets are bound simultaneously before any is closed,
    so the kernel cannot hand the same port out twice within one call.
    (The usual bind-then-close race against *other* processes remains —
    acceptable for a local dev/CI cluster.)
    """
    held: List[socket.socket] = []

    def claim(host: str) -> int:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind((host, 0))
        held.append(sock)
        return int(sock.getsockname()[1])

    def fill(address: NodeAddress) -> NodeAddress:
        port = address.port or claim(address.host)
        http_port = address.http_port or claim(address.host)
        return replace(address, port=port, http_port=http_port)

    try:
        shards = tuple(
            replace(
                shard,
                replicas=tuple(fill(a) for a in shard.replicas),
                proxies=tuple(fill(a) for a in shard.proxies),
                manager=fill(shard.manager),
            )
            for shard in spec.shards
        )
        return replace(spec, shards=shards)
    finally:
        for sock in held:
            sock.close()


#: ``(rss_bytes, cpu_seconds)`` keys of one worker's resource snapshot.
def proc_stats(pid: int) -> Optional[Dict[str, float]]:
    """Resident set size and CPU time of one process, from ``/proc``.

    Returns ``None`` when the process is gone or ``/proc`` is not
    available (non-Linux).  Reading ``/proc/<pid>/stat`` directly keeps
    this dependency-free: field 24 is RSS in pages, fields 14/15 are
    user/system jiffies.
    """
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            raw = handle.read()
    except OSError:
        return None
    # The comm field is parenthesised and may contain spaces; split
    # after its closing paren so the numeric fields index stably.
    _, _, rest = raw.rpartition(") ")
    fields = rest.split()
    if len(fields) < 22:
        return None
    try:
        ticks = float(os.sysconf("SC_CLK_TCK"))
        page = float(os.sysconf("SC_PAGE_SIZE"))
        utime, stime = float(fields[11]), float(fields[12])
        rss_pages = float(fields[21])
    except (ValueError, OSError):
        return None
    return {
        "rss_bytes": rss_pages * page,
        "cpu_seconds": (utime + stime) / ticks,
    }


@dataclass
class NodeProcess:
    """One spawned ``serve`` worker (survives restarts of its process)."""

    address: NodeAddress
    process: subprocess.Popen
    #: Times the worker has been (re)spawned after its first start.
    restarts: int = 0
    #: Exit codes of previous incarnations, oldest first.
    past_exits: List[int] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.address.name

    @property
    def returncode(self) -> Optional[int]:
        return self.process.poll()

    def resources(self) -> Optional[Dict[str, float]]:
        """This worker's current RSS/CPU snapshot (``None`` once dead)."""
        if self.returncode is not None:
            return None
        return proc_stats(self.process.pid)


class LocalCluster:
    """Spawn and manage one live cluster of local worker processes."""

    def __init__(
        self,
        spec: ClusterSpec,
        workdir: Optional[str] = None,
        python: str = sys.executable,
    ) -> None:
        self.spec = allocate_ports(spec.validate()).validate()
        self._python = python
        self._workdir = workdir or tempfile.mkdtemp(prefix="qopt-cluster-")
        self.spec_path = os.path.join(self._workdir, "cluster.json")
        self.workers: List[NodeProcess] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        with open(self.spec_path, "w", encoding="utf-8") as handle:
            handle.write(self.spec.to_json() + "\n")
        for address in self.spec.all_addresses():
            self.workers.append(
                NodeProcess(address, self._spawn(address.name))
            )

    def _spawn(self, node_name: str) -> subprocess.Popen:
        env = dict(os.environ)
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else src_root + os.pathsep + existing
        )
        return subprocess.Popen(
            [
                self._python,
                "-m",
                "repro",
                "serve",
                "--spec",
                self.spec_path,
                "--node",
                node_name,
            ],
            env=env,
        )

    # -- supervision ---------------------------------------------------------

    def worker(self, name: str) -> NodeProcess:
        for worker in self.workers:
            if worker.name == name:
                return worker
        raise KeyError(f"no worker named {name!r}")

    def kill_worker(self, name: str) -> NodeProcess:
        """Fail-stop one worker with SIGKILL (no graceful shutdown)."""
        worker = self.worker(name)
        if worker.returncode is None:
            worker.process.send_signal(signal.SIGKILL)
            worker.process.wait()
        return worker

    def restart_worker(self, name: str) -> NodeProcess:
        """Respawn a dead worker's process (same spec, same ports).

        The worker must already have exited — restarting a live process
        would orphan it.  The restarted replica recovers from its WAL
        directory (when the spec has ``data_dir``) and rejoins
        quarantined.
        """
        worker = self.worker(name)
        code = worker.returncode
        if code is None:
            raise RuntimeError(f"worker {name} is still running")
        worker.past_exits.append(code)
        worker.process = self._spawn(name)
        worker.restarts += 1
        return worker

    async def wait_healthy(self, deadline: float = 20.0) -> None:
        # Snapshot: start() may append more workers while we await.
        for worker in list(self.workers):
            await self.wait_worker_healthy(worker, deadline=deadline)

    async def wait_worker_healthy(
        self, worker: NodeProcess, deadline: float = 20.0
    ) -> str:
        """Poll one worker's ``/healthz``; fail fast if it already died.

        Returns the healthz body.  A worker that exits while we poll
        raises immediately instead of burning the whole deadline — a
        crashed-on-boot replica (bad spec, corrupt WAL directory) should
        fail the run in milliseconds, not after a timeout.
        """
        loop = asyncio.get_running_loop()
        give_up = loop.time() + deadline
        while True:
            code = worker.returncode
            if code is not None:
                raise RuntimeError(
                    f"worker {worker.name} exited with code {code} "
                    "before becoming healthy"
                )
            try:
                status, body = await http_get(
                    worker.address.host,
                    worker.address.http_port,
                    "/healthz",
                    timeout=2.0,
                )
                if status == 200:
                    return body
            except (OSError, asyncio.TimeoutError, ValueError, IndexError):
                pass
            if loop.time() >= give_up:
                raise TimeoutError(
                    f"worker {worker.name} not healthy in {deadline}s"
                )
            await asyncio.sleep(0.1)

    # -- shutdown ------------------------------------------------------------

    async def shutdown(self, grace: float = 10.0) -> Dict[str, int]:
        """Stop every worker; returns ``{node name: exit code}``."""
        for worker in list(self.workers):
            if worker.returncode is not None:
                continue
            try:
                await http_get(
                    worker.address.host,
                    worker.address.http_port,
                    "/shutdown",
                    timeout=3.0,
                )
            except (OSError, TimeoutError, ValueError, IndexError):
                pass  # fall through to terminate below
        codes: Dict[str, int] = {}
        for worker in self.workers:
            try:
                codes[worker.name] = worker.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                worker.process.terminate()
                try:
                    codes[worker.name] = worker.process.wait(timeout=3.0)
                except subprocess.TimeoutExpired:
                    worker.process.kill()
                    codes[worker.name] = worker.process.wait()
        return codes

    def kill(self) -> None:
        """Last-resort synchronous cleanup (signal handlers, atexit)."""
        for worker in self.workers:
            if worker.returncode is None:
                worker.process.kill()

    # -- status --------------------------------------------------------------

    def dead_workers(self) -> List[NodeProcess]:
        return [w for w in self.workers if w.returncode is not None]

    def restarted_workers(self) -> List[NodeProcess]:
        return [w for w in self.workers if w.restarts > 0]

    async def health(self) -> Dict[str, dict]:
        """The cluster ``/healthz`` aggregate: one entry per worker.

        Combines process-level liveness (poll) with each live worker's
        own ``/healthz`` body, so dead workers show up as
        ``alive=False`` instead of a scrape timeout.
        """
        report: Dict[str, dict] = {}
        for worker in list(self.workers):
            entry: dict = {
                "alive": worker.returncode is None,
                "returncode": worker.returncode,
                "restarts": worker.restarts,
                "healthz": None,
                # Attributes throughput to cores: fleet runs read these
                # to see which shard's workers are burning CPU.
                "resources": worker.resources(),
            }
            if entry["alive"]:
                try:
                    status, body = await http_get(
                        worker.address.host,
                        worker.address.http_port,
                        "/healthz",
                        timeout=2.0,
                    )
                    if status == 200:
                        entry["healthz"] = body.strip()
                except (
                    OSError, asyncio.TimeoutError, ValueError, IndexError
                ):
                    pass
            report[worker.name] = entry
        return report

    def describe(self) -> str:
        lines = [f"cluster spec: {self.spec_path}"]
        for worker in self.workers:
            address = worker.address
            code = worker.returncode
            status = f"pid {worker.process.pid}" if code is None else (
                f"DEAD exit={code}"
            )
            if worker.restarts:
                status += f" restarts={worker.restarts}"
            resources = worker.resources()
            if resources is not None:
                status += (
                    f"  rss={resources['rss_bytes'] / 1e6:.1f}MB"
                    f" cpu={resources['cpu_seconds']:.2f}s"
                )
            lines.append(
                f"  {address.name:12s} transport {address.host}:{address.port}"
                f"  http {address.host}:{address.http_port}"
                f"  {status}"
            )
        return "\n".join(lines)


__all__ = ["LocalCluster", "NodeProcess", "allocate_ports", "proc_stats"]
