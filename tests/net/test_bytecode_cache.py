"""Workers start from a private bytecode cache (``worker_env``).

The live tests boot a three-worker cluster (one replica, one proxy, the
RM) against a fresh, empty cache with ``PYTHONDONTWRITEBYTECODE=1`` set,
as the benchmark's environment sets it.  They show that nothing is
written under the source tree or the standard library, that workers and
a restarted worker run the cached bytecode, that an edited source wins
over its stale bytecode, and that an unusable cache location leaves the
workers compiling as before.

Wall time: ~6 s on a 2-core machine (five cluster boots, two of them
after filling an empty cache, standard library included).
"""

from __future__ import annotations

import asyncio
import importlib.util
import marshal
import os
import shutil
import stat
import struct
import sys
import sysconfig
from typing import Dict, List

import pytest

from repro.net import cluster as cluster_module
from repro.net.cluster import LocalCluster, private_cache_dir, worker_env
from repro.net.httpd import http_get
from repro.net.spec import build_spec

SRC = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(cluster_module.__file__)))
)


def dir_mtimes(root: str) -> Dict[str, int]:
    """Every directory under ``root`` with its mtime: a file created,
    renamed or removed in a directory changes that directory's mtime."""
    return {
        path: os.stat(path).st_mtime_ns
        for path, _, _ in os.walk(root)
    }


def cached_pyc(cache: str, source: str) -> str:
    """Where Python keeps ``source``'s bytecode under prefix ``cache``."""
    saved = sys.pycache_prefix
    sys.pycache_prefix = cache
    try:
        return importlib.util.cache_from_source(source)
    finally:
        sys.pycache_prefix = saved


def boot_and_probe(kill_and_restart: str = "") -> List[str]:
    """Boot a three-worker cluster, read every ``/healthz`` (again after
    restarting ``kill_and_restart``), shut down; returns the bodies."""

    async def scenario() -> List[str]:
        cluster = LocalCluster(
            build_spec(replicas=1, proxies=1, write_quorum=1, seed=1)
        )
        bodies: List[str] = []
        try:
            cluster.start()
            await cluster.wait_healthy()
            if kill_and_restart:
                record = await cluster.kill_and_restart(
                    kill_and_restart, downtime=0.0
                )
                assert record.problem is None
            for address in cluster.spec.all_addresses():
                status, body = await http_get(
                    address.host, address.http_port, "/healthz"
                )
                assert status == 200
                bodies.append(body)
            codes = await cluster.shutdown()
            assert set(codes.values()) == {0}
        finally:
            cluster.kill()
        return bodies

    return asyncio.run(scenario())


@pytest.fixture
def no_bytecode_writes(monkeypatch) -> None:
    """Writes off for the workers' environment and for this process, so
    any bytecode that appears was written by a worker."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)


class TestPrivateCacheDir:
    def test_created_private_to_this_user(self, monkeypatch, tmp_path) -> None:
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        path = private_cache_dir()
        assert path == str(tmp_path / f"repro-pycache-{os.getuid()}")
        info = os.lstat(path)
        assert stat.S_IMODE(info.st_mode) == 0o700
        assert private_cache_dir() == path  # an existing one is reused

    def test_refuses_another_users_directory(
        self, monkeypatch, tmp_path
    ) -> None:
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        other = os.getuid() + 1
        (tmp_path / f"repro-pycache-{other}").mkdir(mode=0o700)
        monkeypatch.setattr(os, "getuid", lambda: other)
        assert private_cache_dir() is None

    def test_refuses_a_writable_or_linked_directory(
        self, monkeypatch, tmp_path
    ) -> None:
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        path = tmp_path / f"repro-pycache-{os.getuid()}"
        path.mkdir()
        path.chmod(0o770)
        assert private_cache_dir() is None
        path.rmdir()
        (tmp_path / "elsewhere").mkdir(mode=0o700)
        path.symlink_to(tmp_path / "elsewhere")
        assert private_cache_dir() is None

    def test_unusable_location_leaves_the_environment_as_it_was(
        self, tmp_path
    ) -> None:
        blocker = tmp_path / "file"
        blocker.write_text("")
        environ = {
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPYCACHEPREFIX": str(blocker / "cache"),
        }
        env = worker_env(environ)
        assert env == dict(environ, PYTHONPATH=SRC)


@pytest.mark.slow
class TestWorkersStartFromTheCache:
    def test_boot_writes_only_into_the_cache(
        self, monkeypatch, tmp_path, no_bytecode_writes
    ) -> None:
        cache = str(tmp_path / "cache")
        monkeypatch.setenv("PYTHONPYCACHEPREFIX", cache)
        stdlib = sysconfig.get_paths()["stdlib"]
        before = (dir_mtimes(SRC), dir_mtimes(stdlib))
        boot_and_probe()
        assert (dir_mtimes(SRC), dir_mtimes(stdlib)) == before
        for module in ("net/runtime", "sds/storage", "sds/proxy",
                       "reconfig/manager"):
            source = os.path.join(SRC, "repro", f"{module}.py")
            assert os.path.exists(cached_pyc(cache, source)), module
        assert os.path.exists(cached_pyc(cache, asyncio.__file__))

    def test_workers_run_cached_bytecode_until_the_source_changes(
        self, monkeypatch, tmp_path, no_bytecode_writes
    ) -> None:
        src = tmp_path / "src"
        shutil.copytree(os.path.join(SRC, "repro"), src / "repro")
        monkeypatch.setattr(cluster_module, "SRC_ROOT", str(src))
        cache = str(tmp_path / "cache")
        monkeypatch.setenv("PYTHONPYCACHEPREFIX", cache)
        runtime = str(src / "repro" / "net" / "runtime.py")
        with open(runtime, encoding="utf-8") as handle:
            text = handle.read()
        assert text.count('f"ok {self.node_id}') == 2

        bodies = boot_and_probe()
        assert all(body.startswith("ok ") for body in bodies)

        # Bytecode that differs from the source but carries the source's
        # mtime and size passes Python's check: a worker that prints
        # "cached" ran the cache, not a fresh compile.
        info = os.stat(runtime)
        code = compile(
            text.replace('f"ok {self.node_id}', 'f"cached {self.node_id}'),
            runtime,
            "exec",
        )
        with open(cached_pyc(cache, runtime), "wb") as handle:
            handle.write(importlib.util.MAGIC_NUMBER)
            handle.write(
                struct.pack(
                    "<III",
                    0,
                    int(info.st_mtime) & 0xFFFFFFFF,
                    info.st_size & 0xFFFFFFFF,
                )
            )
            handle.write(marshal.dumps(code))
        bodies = boot_and_probe(kill_and_restart="proxy-0")
        assert all(body.startswith("cached ") for body in bodies), bodies

        # An edit changes the source's size and mtime: the stale
        # bytecode never runs again.
        with open(runtime, "w", encoding="utf-8") as handle:
            handle.write(
                text.replace('f"ok {self.node_id}', 'f"edited {self.node_id}')
            )
        bodies = boot_and_probe()
        assert all(body.startswith("edited ") for body in bodies), bodies

    def test_unusable_cache_falls_back_to_compiling(
        self, monkeypatch, tmp_path, no_bytecode_writes
    ) -> None:
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(blocker / "cache"))
        before = dir_mtimes(SRC)
        bodies = boot_and_probe()
        assert all(body.startswith("ok ") for body in bodies)
        assert dir_mtimes(SRC) == before
        assert blocker.read_text() == ""
