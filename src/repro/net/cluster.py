"""Local cluster orchestration: N ``serve`` processes on one machine.

:class:`LocalCluster` is the process-level analogue of the simulator's
:class:`~repro.sds.cluster.SwiftCluster`: it allocates real ports,
rewrites the :class:`~repro.net.spec.ClusterSpec`, writes it to disk and
spawns one ``python -m repro serve`` subprocess per protocol node.  Each
node is a genuinely separate OS process talking TCP — there is no shared
memory shortcut — so the topology exercises the same code paths a
multi-host deployment would, minus the physical network.

It is also the one supervisor of those processes and the only reader
of their ``/healthz`` (:mod:`repro.net.runtime` is the only writer):
boot, restart and readmission all wait through one poll loop that
fails fast the moment the polled worker's process exits.  A restart
(:meth:`LocalCluster.kill_and_restart`) is a fail-stop ``kill -9``,
respawns with exponential backoff until the worker answers, then waits
out the replica's I6 quarantine.

Every worker starts from a private bytecode cache (:func:`worker_env`):
Python's ``PYTHONPYCACHEPREFIX`` points at a per-user directory outside
the checkout, filled once, standard library included, by one
interpreter before the first spawn, so a boot or a restart loads
compiled modules instead of compiling the same source seven times.

Shutdown is graceful-then-forceful: ``GET /shutdown`` on every node,
bounded wait, then ``terminate()``/``kill()`` for stragglers.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import signal
import socket
import stat
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional

from repro.net.httpd import http_get
from repro.net.spec import ClusterSpec, NodeAddress

#: Seconds before the first ``/healthz`` re-poll of one worker; each
#: later pause doubles, up to ``HEALTH_POLL``.
HEALTH_POLL_FIRST = 0.01
HEALTH_POLL = 0.1
#: Timeout of one control request (``/healthz``, ``/shutdown``).
REQUEST_TIMEOUT = 2.0
#: Deadline for a booted or restarted worker to answer ``/healthz``.
HEALTH_DEADLINE = 20.0
#: Deadline for a restarted replica to leave quarantine.
RECOVERY_DEADLINE = 30.0
#: Restart backoff: ``BACKOFF_BASE * 2**attempt``, capped at ``BACKOFF_CAP``.
BACKOFF_BASE = 0.2
BACKOFF_CAP = 2.0
#: Restarts tried before a kill cycle is reported as a problem.
MAX_RESTART_ATTEMPTS = 3
#: Seconds workers get to exit after ``/shutdown`` before ``terminate()``.
SHUTDOWN_GRACE = 10.0
#: The directory holding the ``repro`` package the workers run.
SRC_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
#: What the cache fill imports: every role's modules (a worker loads a
#: subset).  A module left out is compiled, and cached, by the first
#: worker that imports it.
WORKER_MODULES = (
    "repro.cli",
    "repro.net.runtime",
    "repro.sds.storage",
    "repro.sds.proxy",
    "repro.reconfig.manager",
)
#: Seconds the one-off cache fill may take before workers start without it.
FILL_TIMEOUT = 60.0


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


def private_cache_dir() -> Optional[str]:
    """This user's bytecode cache directory under the temp directory.

    Created with mode 0700.  ``None`` when it cannot be created, or when
    what is there is not a directory of this user's that only this user
    can write: bytecode someone else can plant must never run.
    """
    path = os.path.join(
        tempfile.gettempdir(), f"repro-pycache-{os.getuid()}"
    )
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    except OSError:
        return None
    try:
        info = os.lstat(path)
    except OSError:
        return None
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.getuid()
        or info.st_mode & 0o022
    ):
        return None
    return path


def _fill_cache(env: Dict[str, str]) -> bool:
    """Compile every role's modules, and the standard library they
    import, into ``env``'s prefix once; later calls find the stamp.

    The stamp is per interpreter and per source tree, because the
    prefix mirrors both by absolute path.  Whether a cached module is
    still fresh is never decided here: Python checks each ``.pyc``
    against its source's mtime and size on every import.
    """
    key = f"{sys.executable}\n{SRC_ROOT}".encode("utf-8")
    stamp = os.path.join(
        env["PYTHONPYCACHEPREFIX"],
        f"repro-filled.{sys.implementation.cache_tag}."
        f"{hashlib.sha256(key).hexdigest()[:16]}",
    )
    if os.path.exists(stamp):
        return True
    try:
        os.makedirs(env["PYTHONPYCACHEPREFIX"], exist_ok=True)
        subprocess.run(
            [sys.executable, "-c", "import " + ", ".join(WORKER_MODULES)],
            env=env,
            check=True,
            timeout=FILL_TIMEOUT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        with open(stamp, "w", encoding="ascii"):
            pass
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def worker_env(environ: Mapping[str, str]) -> Dict[str, str]:
    """The environment a ``serve`` worker starts with.

    ``environ`` plus ``SRC_ROOT`` on ``PYTHONPATH`` and, whenever a
    cache can be filled, ``PYTHONPYCACHEPREFIX`` — the environment's own
    or :func:`private_cache_dir` — with bytecode writes on: with a
    prefix set Python reads and writes ``.pyc`` files only there, never
    next to a source file or in the interpreter's library.  Without a
    usable cache the worker compiles in memory, as it would without
    this function.
    """
    env = dict(environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        SRC_ROOT if not existing else SRC_ROOT + os.pathsep + existing
    )
    prefix = env.get("PYTHONPYCACHEPREFIX") or private_cache_dir()
    if prefix is None:
        return env
    cached = dict(env, PYTHONPYCACHEPREFIX=prefix)
    cached.pop("PYTHONDONTWRITEBYTECODE", None)
    return cached if _fill_cache(cached) else env


def backoff(attempt: int) -> float:
    """Seconds to wait after failed restart ``attempt`` (0-based)."""
    return min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** attempt))


async def _poll_healthz(
    address: NodeAddress,
    process: Optional[subprocess.Popen],
    deadline: float,
    ready: Callable[[str], bool] = lambda body: True,
) -> str:
    """The one ``/healthz`` poll loop; returns the first ``ready`` body.

    When ``process`` is given, a worker that exits while we poll raises
    immediately instead of burning the whole deadline — a
    crashed-on-boot replica (bad spec, corrupt WAL directory) should
    fail the run in milliseconds, not after a timeout.
    """
    loop = asyncio.get_running_loop()
    give_up = loop.time() + deadline
    pause = HEALTH_POLL_FIRST
    while True:
        code = None if process is None else process.poll()
        if code is not None:
            raise RuntimeError(
                f"worker {address.name} exited with code {code} "
                "before becoming healthy"
            )
        try:
            status, body = await http_get(
                address.host,
                address.http_port,
                "/healthz",
                timeout=REQUEST_TIMEOUT,
            )
            if status == 200 and ready(body):
                return body
        except (OSError, asyncio.TimeoutError, ValueError, IndexError):
            pass
        if loop.time() >= give_up:
            raise TimeoutError(
                f"worker {address.name} not healthy in {deadline}s"
            )
        await asyncio.sleep(pause)
        pause = min(HEALTH_POLL, 2 * pause)


async def wait_spec_healthy(spec: ClusterSpec) -> None:
    """Wait for every node of a cluster booted elsewhere to answer."""
    for address in spec.all_addresses():
        await _poll_healthz(address, None, HEALTH_DEADLINE)


@dataclass
class RestartRecord:
    """What one kill → restart → readmission cycle observed."""

    victim: str
    restart_attempts: int = 0
    #: Wall seconds from (first) restart to quarantine exit; None if the
    #: replica never rejoined.
    recovery_seconds: Optional[float] = None
    #: Whether the replica was ever observed read-excluded after the
    #: restart (the I6 quarantine window is visible on ``/healthz``).
    quarantine_observed: bool = False
    #: Why the cycle did not recover; None when it did.
    problem: Optional[str] = None

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


@dataclass
class NodeProcess:
    """One spawned ``serve`` worker (survives restarts of its process)."""

    address: NodeAddress
    process: subprocess.Popen
    #: Times the worker has been (re)spawned after its first start.
    restarts: int = 0

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
        self, spec: ClusterSpec, workdir: Optional[str] = None
    ) -> None:
        self.spec = allocate_ports(spec.validate()).validate()
        self._workdir = workdir or tempfile.mkdtemp(prefix="qopt-cluster-")
        self.spec_path = os.path.join(self._workdir, "cluster.json")
        self.workers: List[NodeProcess] = []
        #: Every spawn's environment, made at the first spawn.
        self._env: Optional[Dict[str, str]] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        with open(self.spec_path, "w", encoding="utf-8") as handle:
            handle.write(self.spec.to_json() + "\n")
        for address in self.spec.all_addresses():
            self.workers.append(
                NodeProcess(address, self._spawn(address.name))
            )

    def _spawn(self, node_name: str) -> subprocess.Popen:
        if self._env is None:
            self._env = worker_env(os.environ)
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--spec",
                self.spec_path,
                "--node",
                node_name,
            ],
            env=self._env,
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
        if worker.returncode is None:
            raise RuntimeError(f"worker {name} is still running")
        worker.process = self._spawn(name)
        worker.restarts += 1
        return worker

    async def kill_and_restart(
        self, name: str, downtime: float
    ) -> RestartRecord:
        """Fail-stop ``name``, keep it down ``downtime`` seconds, respawn
        it with backoff until it answers ``/healthz``, then wait until it
        no longer reports ``quarantined=true``.

        Problems land in the record's ``problem``; this never raises for
        a worker that does not come back.
        """
        loop = asyncio.get_running_loop()
        self.kill_worker(name)
        record = RestartRecord(victim=name)
        await asyncio.sleep(downtime)
        restarted_at = loop.time()
        for attempt in range(MAX_RESTART_ATTEMPTS):
            if attempt:
                await asyncio.sleep(backoff(attempt - 1))
            worker = self.restart_worker(name)
            record.restart_attempts += 1
            try:
                body = await self.wait_worker_healthy(worker)
                break
            except (RuntimeError, TimeoutError):
                # Crashed on boot or wedged: put it down cleanly before
                # the next attempt.
                self.kill_worker(name)
        else:
            record.problem = (
                f"{name}: did not come back healthy after "
                f"{MAX_RESTART_ATTEMPTS} restart attempts"
            )
            return record

        def readmitted(body: str) -> bool:
            # A memory-backed replica has no quarantine phase at all.
            if "quarantined=true" in body:
                record.quarantine_observed = True
                return False
            return True

        try:
            # The first healthy body counts: a quarantine shorter than
            # one poll interval is still observed.
            if not readmitted(body):
                await _poll_healthz(
                    worker.address, worker.process, RECOVERY_DEADLINE,
                    readmitted,
                )
        except TimeoutError:
            record.problem = (
                f"{name}: still quarantined after {RECOVERY_DEADLINE}s"
            )
        except RuntimeError as exc:
            record.problem = str(exc)
        else:
            record.recovery_seconds = loop.time() - restarted_at
        return record

    async def wait_healthy(self) -> None:
        # Snapshot: start() may append more workers while we await.
        for worker in list(self.workers):
            await self.wait_worker_healthy(worker)

    async def wait_worker_healthy(self, worker: NodeProcess) -> str:
        """Poll one worker's ``/healthz``; fail fast if it already died."""
        return await _poll_healthz(
            worker.address, worker.process, HEALTH_DEADLINE
        )

    # -- shutdown ------------------------------------------------------------

    async def shutdown(self) -> Dict[str, int]:
        """Stop every worker; returns ``{node name: exit code}``."""
        for worker in list(self.workers):
            if worker.returncode is not None:
                continue
            try:
                await http_get(
                    worker.address.host,
                    worker.address.http_port,
                    "/shutdown",
                    timeout=REQUEST_TIMEOUT,
                )
            except (OSError, asyncio.TimeoutError, ValueError, IndexError):
                pass  # fall through to terminate below
        codes: Dict[str, int] = {}
        for worker in self.workers:
            try:
                codes[worker.name] = worker.process.wait(timeout=SHUTDOWN_GRACE)
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


__all__ = [
    "LocalCluster",
    "NodeProcess",
    "RestartRecord",
    "allocate_ports",
    "backoff",
    "private_cache_dir",
    "proc_stats",
    "wait_spec_healthy",
    "worker_env",
]
