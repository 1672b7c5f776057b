"""Import contracts: what loads what, checked in fresh interpreters.

Five promises, none of which an in-process test can check (this
process imported everything long ago):

* every live-runtime module can be the *first* ``repro`` import of a
  process — no import cycle is hiding behind ``repro/__init__``
  happening to import things in a lucky order;
* a ``python -m repro serve`` worker loads the kernel, the transport and
  its protocol node, and none of the experiment stack (numpy, analysis,
  Oracle, harness, workloads, autonomic loop, qlint) nor the drivers of
  the other commands (bench, loadgen, cluster supervisor, chaos);
* nor any module of another role: a storage worker runs no proxy, RM,
  top-k or nemesis code, a proxy no storage, WAL or RM code, and the RM
  no proxy, storage, WAL or top-k code;
* building the one command tree imports no command's module;
* the lazy package exports resolve to exactly what ``__all__`` lists.

Wall time: ~5 s (twenty-one short-lived subprocesses).
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SPEC = pathlib.Path(__file__).parent / "net" / "fixtures" / "spec_v1_fixed_ports.json"

#: Modules a worker must never load.
WORKER_FORBIDDEN = (
    "numpy",
    "repro.analysis",
    "repro.oracle",
    "repro.harness",
    "repro.workloads",
    "repro.autonomic",
    "repro.qlint",
    "repro.obs.bench",
    "repro.net.loadgen",
    "repro.net.cluster",
    "repro.net.chaos",
    "repro.net.smoke",
    "repro.net.scaleout",
)

#: What each role's worker must not load on top of ``WORKER_FORBIDDEN``.
ROLE_FORBIDDEN = {
    "storage-0": (
        "repro.sds.proxy",
        "repro.reconfig",
        "repro.topk",
        "repro.sim.nemesis",
    ),
    "proxy-0": (
        "repro.sds.storage",
        "repro.sds.persistence",
        "repro.reconfig",
    ),
    "reconfig-manager-0": (
        "repro.sds.proxy",
        "repro.sds.storage",
        "repro.sds.persistence",
        "repro.topk",
    ),
}

#: Runs ``python -m repro serve`` for one node up to the point where the
#: runtime would start listening, then reports what got imported.
_WORKER_SCRIPT = """
import json, runpy, sys

import repro.net.runtime as runtime

built = []

async def stop_after_construction(self):
    built.append(type(self.node).__name__)

runtime.NodeRuntime.run_until_shutdown = stop_after_construction
sys.argv = ["repro", "serve", "--spec", sys.argv[1], "--node", sys.argv[2]]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exit_:
    assert exit_.code == 0, exit_.code
print(json.dumps({"built": built, "modules": sorted(sys.modules)}))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def _banned(modules: list, banned: tuple) -> list:
    return [
        name
        for name in modules
        if any(name == b or name.startswith(b + ".") for b in banned)
    ]


@pytest.mark.parametrize(
    "module",
    [
        "repro.net.codec",
        "repro.sds.persistence",
        "repro.sds.messages",
        "repro.net.tcp",
        "repro.net.runtime",
        "repro.cli",
    ],
)
def test_module_imports_first_in_a_fresh_interpreter(module: str) -> None:
    """The cycle codec -> sds (package) -> cluster -> storage ->
    persistence -> codec surfaced as "partially initialized module" the
    moment ``repro/__init__`` stopped importing ``repro.analysis`` first."""
    result = _python("-c", f"import {module}")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "node, built",
    [
        ("proxy-0", "ProxyNode"),
        ("storage-0", "StorageNode"),
        ("reconfig-manager-0", "ReconfigurationManager"),
    ],
)
def test_serve_worker_loads_no_experiment_stack(node: str, built: str) -> None:
    result = _python("-c", _WORKER_SCRIPT, str(SPEC), node)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["built"] == [built]
    assert _banned(report["modules"], WORKER_FORBIDDEN) == []


@pytest.mark.parametrize("node", sorted(ROLE_FORBIDDEN))
def test_serve_worker_loads_no_other_role(node: str) -> None:
    result = _python("-c", _WORKER_SCRIPT, str(SPEC), node)
    assert result.returncode == 0, result.stderr
    modules = json.loads(result.stdout)["modules"]
    assert _banned(modules, ROLE_FORBIDDEN[node]) == []


def test_building_the_command_tree_imports_no_command() -> None:
    script = (
        "import json, sys\n"
        "from repro.cli import build_parser\n"
        "build_parser()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    result = _python("-c", script)
    assert result.returncode == 0, result.stderr
    modules = json.loads(result.stdout)
    assert _banned(modules, ("numpy", "repro.qlint", "repro.harness")) == []


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.sds",
        "repro.sim",
        "repro.reconfig",
        "repro.obs",
        "repro.metrics",
        "repro.shard",
        "repro.topk",
    ],
)
def test_lazy_exports_match_dunder_all(package: str) -> None:
    """Every advertised name resolves, in a process that imported
    nothing else first, and ``import *`` sees all of them."""
    script = (
        f"import {package} as p\n"
        "ns = {}\n"
        f"exec('from {package} import *', ns)\n"
        "missing = [n for n in p.__all__ if n not in ns]\n"
        "assert not missing, missing\n"
    )
    result = _python("-c", script)
    assert result.returncode == 0, result.stderr
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        module.nonesuch
