"""Smoke tests: every example script runs to completion.

Each example is executed in-process (so coverage and import errors
surface normally) with stdout captured; the assertions check for the
headline lines each script promises.
"""

from __future__ import annotations

import pathlib
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

pytestmark = pytest.mark.slow


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    assert path.exists(), f"missing example {name}"
    saved_argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved_argv
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "throughput before tuning" in out
    assert "per-object overrides" in out


def test_manual_reconfiguration(capsys):
    out = run_example("manual_reconfiguration.py", capsys)
    assert "failure-free two-phase reconfiguration" in out
    assert "epoch change fences it" in out
    assert "NACK" in out


def test_personal_cloud(capsys):
    out = run_example("personal_cloud.py", capsys)
    assert "switch" in out
    assert "steady state after the switch" in out


def test_multi_tenant(capsys):
    out = run_example("multi_tenant.py", capsys)
    assert "q-opt" in out
    assert "overrides per tenant" in out


def test_fault_tolerant_control_plane(capsys):
    out = run_example("fault_tolerant_control_plane.py", capsys)
    assert "new primary" in out


def test_live_cluster(capsys):
    out = run_example("live_cluster.py", capsys)
    assert "live reconfiguration to W=2" in out
    assert "linearizable=True" in out
    assert "cluster shut down cleanly: True" in out
    assert "tuning continued" in out
