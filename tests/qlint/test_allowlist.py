"""The nondeterminism allowlist: scoped waiver, not a blanket skip."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.qlint.astutils import SourceFile, iter_python_files
from repro.qlint.determinism import DeterminismLinter
from repro.qlint.runner import DETERMINISM_PACKAGES, repro_root, run_suite


def _lint(
    tmp_path: Path, code: str, relative: str, allowed: tuple = ()
) -> list:
    """Lint a snippet placed at a path inside the repro package root.

    The allowlist matches package-relative prefixes, so the fixture file
    must live under ``src/repro`` for prefix tests to be meaningful —
    written into a throwaway subdirectory and removed afterwards.
    """
    target = repro_root() / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    try:
        target.write_text(textwrap.dedent(code), encoding="utf-8")
        source = SourceFile.parse(target)
        return DeterminismLinter(nondeterminism_allowed=allowed).run(source)
    finally:
        target.unlink()
        if not any(target.parent.iterdir()):
            target.parent.rmdir()


_CLOCK_AND_ENTROPY = """
    import random
    import time

    def stamp():
        return time.time(), random.random()
"""

_SET_ITERATION = """
    def drain(items) -> list:
        pending = set(items)
        return [item for item in pending]
"""


def test_default_allowlist_covers_net() -> None:
    assert "net/" in DeterminismLinter.NONDETERMINISM_ALLOWED


def test_net_is_in_the_default_determinism_scope() -> None:
    assert "net" in DETERMINISM_PACKAGES


def test_allowlisted_path_waives_clock_and_entropy(tmp_path) -> None:
    findings = _lint(
        tmp_path, _CLOCK_AND_ENTROPY, "net/_qlint_fixture.py",
        allowed=("net/",),
    )
    assert findings == []


def test_allowlisted_path_still_gets_qd003_qd004(tmp_path) -> None:
    findings = _lint(
        tmp_path,
        _SET_ITERATION + """
    def collect(acc=[]):
        acc.append(1)
        return acc
""",
        "net/_qlint_fixture.py",
        allowed=("net/",),
    )
    rules = sorted(finding.rule for finding in findings)
    assert rules == ["QD003", "QD004"]


def test_non_allowlisted_path_is_fully_gated(tmp_path) -> None:
    findings = _lint(
        tmp_path, _CLOCK_AND_ENTROPY, "sds/_qlint_fixture.py",
        allowed=("net/",),
    )
    rules = sorted(finding.rule for finding in findings)
    assert rules == ["QD001", "QD002"]


def test_sim_and_sds_have_no_live_waiver_in_default_suite() -> None:
    """The shipped allowlist must not reach beyond the live runtime."""
    for prefix in DeterminismLinter.NONDETERMINISM_ALLOWED:
        assert prefix.startswith("net"), prefix


def test_default_suite_is_clean_with_allowlist() -> None:
    assert run_suite() == []


def test_net_violations_exist_and_are_waived_not_absent() -> None:
    """Prove the allowlist does real work: disabling it finds QD001/2
    in net/, and every such finding is on an allowlisted path."""
    unwaived = DeterminismLinter(nondeterminism_allowed=())
    packages = [repro_root() / package for package in DETERMINISM_PACKAGES]
    waived = [
        finding
        for path in iter_python_files(packages)
        for finding in unwaived.run(SourceFile.parse(path))
        if finding.rule in DeterminismLinter.ALLOWLIST_RULES
    ]
    assert waived, "expected live-runtime clock/entropy findings"
    for finding in waived:
        path = finding.path.replace("\\", "/")
        assert "/net/" in path, finding
