"""LocalCluster supervision: dead-worker detection, restarts, health."""

from __future__ import annotations

import asyncio
import subprocess
import sys
import time

import pytest

from repro.net.cluster import LocalCluster, NodeProcess, proc_stats
from repro.net.spec import build_spec


class _FakeProcess:
    """poll()/pid shim so supervision logic is testable without spawns."""

    def __init__(self, returncode=None, pid=4242) -> None:
        self._returncode = returncode
        self.pid = pid

    def poll(self):
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
                await cluster.wait_worker_healthy(worker, deadline=30.0)
            # Fail-fast: milliseconds, nowhere near the 30s deadline.
            assert loop.time() - begin < 5.0

        asyncio.run(scenario())

    def test_health_aggregate_reports_dead_worker_without_scraping(
        self,
    ) -> None:
        cluster = make_cluster()
        add_fake_worker(cluster, name_index=0, returncode=-9)

        async def scenario() -> dict:
            return await cluster.health()

        report = asyncio.run(scenario())
        (entry,) = report.values()
        assert entry["alive"] is False
        assert entry["returncode"] == -9
        assert entry["healthz"] is None


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
            assert worker.past_exits == [-9]
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
            entry = asyncio.run(cluster.health())[worker.name]
            assert entry["resources"] == pytest.approx(live, rel=0.5)
            assert "rss=" in cluster.describe()
        finally:
            cluster.kill()
            process.wait()
            process.stdout.close()
        assert worker.resources() is None
