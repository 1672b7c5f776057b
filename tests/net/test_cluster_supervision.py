"""LocalCluster supervision: dead-worker detection, restarts, health."""

from __future__ import annotations

import asyncio
import signal
import socket
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.net import cluster as cluster_module
from repro.net.cluster import (
    HEALTH_POLL,
    HEALTH_POLL_FIRST,
    LocalCluster,
    NodeProcess,
    backoff,
    proc_stats,
)
from repro.net.httpd import MiniHttpServer
from repro.net.spec import build_spec


class _FakeProcess:
    """Popen shim so supervision logic is testable without spawns."""

    def __init__(self, returncode=None, pid=4242) -> None:
        self._returncode = returncode
        self.pid = pid

    def poll(self):
        return self._returncode

    def send_signal(self, signum) -> None:
        if self._returncode is None:
            self._returncode = -signum

    def wait(self, timeout=None):
        return self._returncode


def make_cluster() -> LocalCluster:
    return LocalCluster(
        build_spec(replicas=5, proxies=1, write_quorum=4, seed=1)
    )


def add_fake_worker(cluster, name_index=0, returncode=None) -> NodeProcess:
    address = cluster.spec.replicas[name_index]
    worker = NodeProcess(address, _FakeProcess(returncode=returncode))
    cluster.workers.append(worker)
    return worker


class TestSupervisionBookkeeping:
    def test_worker_lookup_by_name(self) -> None:
        cluster = make_cluster()
        worker = add_fake_worker(cluster)
        assert cluster.worker(worker.name) is worker
        with pytest.raises(KeyError):
            cluster.worker("no-such-node")

    def test_restart_refuses_live_worker(self) -> None:
        cluster = make_cluster()
        worker = add_fake_worker(cluster, returncode=None)
        with pytest.raises(RuntimeError, match="still running"):
            cluster.restart_worker(worker.name)

    def test_dead_and_restarted_worker_listings(self) -> None:
        cluster = make_cluster()
        live = add_fake_worker(cluster, name_index=0, returncode=None)
        dead = add_fake_worker(cluster, name_index=1, returncode=-9)
        assert cluster.dead_workers() == [dead]
        assert cluster.restarted_workers() == []
        live.restarts = 2
        assert cluster.restarted_workers() == [live]

    def test_describe_surfaces_death_and_restarts(self) -> None:
        cluster = make_cluster()
        dead = add_fake_worker(cluster, name_index=0, returncode=137)
        dead.restarts = 1
        text = cluster.describe()
        assert "DEAD exit=137" in text
        assert "restarts=1" in text


class TestFailFastHealth:
    def test_wait_worker_healthy_raises_immediately_on_dead_worker(
        self,
    ) -> None:
        cluster = make_cluster()
        worker = add_fake_worker(cluster, returncode=3)

        async def scenario() -> None:
            loop = asyncio.get_running_loop()
            begin = loop.time()
            with pytest.raises(RuntimeError, match="exited with code 3"):
                await cluster.wait_worker_healthy(worker)
            # Fail-fast: milliseconds, nowhere near the health deadline.
            assert loop.time() - begin < 5.0

        asyncio.run(scenario())


class TestRestartPolicy:
    def test_backoff_doubles_then_caps(self) -> None:
        delays = [backoff(attempt) for attempt in range(5)]
        assert delays == pytest.approx([0.2, 0.4, 0.8, 1.6, 2.0])  # capped


QUARANTINED = "ok storage-0 shard=shard-0 quarantined=true epoch=1 cfg=1\n"
READMITTED = "ok storage-0 shard=shard-0 quarantined=false epoch=1 cfg=1\n"


class TestKillAndRestart:
    """``kill_and_restart`` against fake respawns and an in-process
    ``/healthz``: no ``serve`` worker is spawned.  All six cases
    together take about 2.3 s of wall time on a 2-core machine."""

    def restart(self, monkeypatch, respawns, bodies=None):
        """Kill a live fake worker and run one restart cycle.

        ``respawns`` are the return codes of successive respawned
        processes (``None`` = alive); ``bodies`` the successive
        ``/healthz`` bodies, the last one repeating (``None``: nothing
        listens).  Returns the cycle record and every ``asyncio.sleep``
        delay the cycle took, the zero downtime included.
        """
        cluster = make_cluster()
        worker = add_fake_worker(cluster)
        codes = iter(respawns)
        monkeypatch.setattr(
            cluster, "_spawn", lambda name: _FakeProcess(next(codes))
        )
        sleeps = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args):
            sleeps.append(delay)
            return await real_sleep(delay, *args)

        monkeypatch.setattr(asyncio, "sleep", recording_sleep)

        async def scenario():
            server = None
            if bodies is not None:
                answers = list(bodies)

                async def healthz(query):
                    body = answers.pop(0) if len(answers) > 1 else answers[0]
                    return 200, "text/plain", body

                server = MiniHttpServer("127.0.0.1", 0, {"/healthz": healthz})
                await server.start()
                worker.address = replace(
                    worker.address, host="127.0.0.1", http_port=server.port
                )
            try:
                return await cluster.kill_and_restart(
                    worker.name, downtime=0.0
                )
            finally:
                if server is not None:
                    await server.stop()

        return asyncio.run(scenario()), sleeps

    def test_dies_on_boot_twice_then_answers(self, monkeypatch) -> None:
        record, sleeps = self.restart(
            monkeypatch, respawns=[1, 1, None], bodies=[READMITTED]
        )
        assert record.restart_attempts == 3
        # Restart backoffs are the pauses longer than any poll pause.
        assert [s for s in sleeps if s > HEALTH_POLL] == [0.2, 0.4]
        assert record.problem is None
        assert record.recovery_seconds is not None

    def test_never_answers(self, monkeypatch) -> None:
        monkeypatch.setattr(cluster_module, "HEALTH_DEADLINE", 0.3)
        record, sleeps = self.restart(monkeypatch, respawns=[None] * 3)
        assert record.restart_attempts == 3
        assert record.problem == (
            "storage-0: did not come back healthy after 3 restart attempts"
        )
        assert record.recovery_seconds is None
        # Restart backoffs are the pauses longer than any poll pause.
        assert [s for s in sleeps if s > HEALTH_POLL] == [0.2, 0.4]

    def test_waits_out_quarantine(self, monkeypatch) -> None:
        record, _ = self.restart(
            monkeypatch,
            respawns=[None],
            bodies=[QUARANTINED, QUARANTINED, READMITTED],
        )
        assert record.restart_attempts == 1
        assert record.quarantine_observed is True
        assert record.recovery_seconds is not None
        assert record.recovery_seconds >= HEALTH_POLL_FIRST
        assert record.problem is None

    def test_poll_pauses_double_from_10_ms_to_the_cap(
        self, monkeypatch
    ) -> None:
        """Readiness is not quantised at the cap: the first re-poll
        waits 10 ms and each later pause doubles up to ``HEALTH_POLL``."""
        record, sleeps = self.restart(
            monkeypatch,
            respawns=[None],
            bodies=[QUARANTINED] * 7 + [READMITTED],
        )
        assert record.problem is None
        assert sleeps == pytest.approx(
            [0.0, 0.01, 0.02, 0.04, 0.08, 0.1, 0.1]
        )

    def test_quarantine_seen_only_by_the_health_poll_is_observed(
        self, monkeypatch
    ) -> None:
        record, _ = self.restart(
            monkeypatch, respawns=[None], bodies=[QUARANTINED, READMITTED]
        )
        assert record.quarantine_observed is True
        assert record.problem is None

    def test_memory_backed_replica_is_readmitted_on_first_poll(
        self, monkeypatch
    ) -> None:
        record, sleeps = self.restart(
            monkeypatch, respawns=[None], bodies=["ok storage-0 shard=shard-0\n"]
        )
        assert record.quarantine_observed is False
        assert record.recovery_seconds is not None
        assert sleeps == [0.0]  # the downtime only: no poll ever waited


class TestShutdown:
    def test_unanswered_shutdown_falls_through_to_terminate(
        self, monkeypatch
    ) -> None:
        """A worker that accepts ``/shutdown`` but never replies is
        terminated, not left to raise.  About 2.5 s of wall time: one
        2 s request timeout, then the 0.5 s grace patched in here."""
        monkeypatch.setattr(cluster_module, "SHUTDOWN_GRACE", 0.5)
        cluster = make_cluster()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        process = subprocess.Popen(["sleep", "600"])
        address = replace(
            cluster.spec.replicas[0],
            host="127.0.0.1",
            http_port=listener.getsockname()[1],
        )
        cluster.workers.append(NodeProcess(address, process))
        try:
            codes = asyncio.run(cluster.shutdown())
        finally:
            process.kill()
            process.wait()
            listener.close()
        assert codes == {address.name: -signal.SIGTERM}


@pytest.mark.slow
class TestRealProcessSupervision:
    def test_kill_then_restart_tracks_exit_history(self, tmp_path) -> None:
        cluster = LocalCluster(
            build_spec(replicas=5, proxies=1, write_quorum=4, seed=1),
            workdir=str(tmp_path),
        )
        address = cluster.spec.replicas[0]
        # A real process standing in for a serve worker.
        process = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(600)"]
        )
        worker = NodeProcess(address, process)
        cluster.workers.append(worker)
        try:
            assert worker.returncode is None
            cluster.kill_worker(worker.name)
            assert worker.returncode == -9
            # kill_worker on an already-dead worker is a no-op.
            cluster.kill_worker(worker.name)
            restarted = cluster.restart_worker(worker.name)
            assert restarted is worker
            assert worker.restarts == 1
            assert worker.process is not process
        finally:
            cluster.kill()
            worker.process.wait()


class TestProcStats:
    """Per-worker RSS/CPU sampling from /proc (live-health satellite)."""

    def test_own_process_reports_positive_rss_and_cpu(self) -> None:
        import os

        stats = proc_stats(os.getpid())
        assert stats is not None
        assert stats["rss_bytes"] > 1024 * 1024  # >1MB: we run Python
        assert stats["cpu_seconds"] >= 0.0

    def test_comm_with_spaces_and_parens_is_parsed(self) -> None:
        """/proc stat's comm field may contain ") " itself; the parser
        must split on the LAST close-paren."""
        process = subprocess.Popen(
            [sys.executable, "-c",
             "import ctypes, time;"
             "ctypes.CDLL(None).prctl(15, b'evil) 1 2', 0, 0, 0);"
             "time.sleep(60)"]
        )
        try:
            stats = proc_stats(process.pid)
            for _ in range(50):
                if stats is not None and stats["rss_bytes"]:
                    break
                time.sleep(0.02)
                stats = proc_stats(process.pid)
            assert stats is not None
            assert stats["rss_bytes"] > 0
        finally:
            process.kill()
            process.wait()

    def test_dead_pid_returns_none(self) -> None:
        process = subprocess.Popen([sys.executable, "-c", "pass"])
        process.wait()
        assert proc_stats(process.pid) is None

    def test_worker_resources_follow_liveness(self, tmp_path) -> None:
        cluster = LocalCluster(
            build_spec(replicas=5, proxies=1, seed=1),
            workdir=str(tmp_path),
        )
        process = subprocess.Popen(
            [sys.executable, "-c",
             "import time; print('ready', flush=True); time.sleep(600)"],
            stdout=subprocess.PIPE,
        )
        worker = NodeProcess(cluster.spec.replicas[0], process)
        cluster.workers.append(worker)
        try:
            # While the interpreter starts up its RSS and CPU time still
            # climb, so two samples taken then can differ by more than
            # any tolerance; sample only once the child sleeps.
            assert process.stdout.readline() == b"ready\n"
            live = worker.resources()
            assert live is not None and live["rss_bytes"] > 0
            assert worker.resources() == pytest.approx(live, rel=0.5)
            assert "rss=" in cluster.describe()
        finally:
            cluster.kill()
            process.wait()
            process.stdout.close()
        assert worker.resources() is None
