"""The ``qlint`` command (``python -m repro qlint`` and its alias
``python -m repro.qlint``) and the pytest plugin."""

from __future__ import annotations

import json
import runpy
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.qlint.runner import ALL_RULES, RULE_SUMMARIES, run_suite

VIOLATION = """
import random

def jitter():
    return random.random()
"""

CLEAN = """
def double(x):
    return 2 * x
"""


def qlint_main(argv):
    """``python -m repro qlint <argv>``; returns the exit code."""
    return main(["qlint", *argv])


@pytest.fixture
def bad_tree(tmp_path: Path) -> Path:
    (tmp_path / "bad.py").write_text(textwrap.dedent(VIOLATION))
    return tmp_path


@pytest.fixture
def clean_tree(tmp_path: Path) -> Path:
    (tmp_path / "clean.py").write_text(textwrap.dedent(CLEAN))
    return tmp_path


class TestCli:
    def test_clean_tree_exits_zero(self, clean_tree, capsys):
        assert qlint_main([str(clean_tree)]) == 0
        assert "qlint: clean" in capsys.readouterr().out

    def test_violation_exits_one(self, bad_tree, capsys):
        assert qlint_main([str(bad_tree)]) == 1
        out = capsys.readouterr().out
        assert "QD001" in out
        assert "1 error(s)" in out

    def test_json_output_parses(self, bad_tree, capsys):
        assert qlint_main([str(bad_tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["warnings"] == 0
        (finding,) = payload["findings"]
        assert finding["rule"] == "QD001"
        assert finding["path"].endswith("bad.py")
        assert finding["line"] == 5

    def test_select_filters_rules(self, bad_tree, capsys):
        assert qlint_main([str(bad_tree), "--select", "QD002"]) == 0
        assert "qlint: clean" in capsys.readouterr().out

    def test_unknown_rule_is_usage_error(self, bad_tree, capsys):
        assert qlint_main([str(bad_tree), "--select", "QX999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert qlint_main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules_covers_every_rule(self, capsys):
        assert qlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("QL000", "QL001") + tuple(ALL_RULES):
            assert rule in out
        assert set(RULE_SUMMARIES) == {"QL000", "QL001", *ALL_RULES}

    def test_repro_cli_forwards_qlint(self, bad_tree, capsys, monkeypatch):
        """``python -m repro.qlint`` is the same command, exit code and all."""
        monkeypatch.setattr("sys.argv", ["repro.qlint", str(bad_tree)])
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("repro.qlint", run_name="__main__")
        assert exit_.value.code == 1
        assert "QD001" in capsys.readouterr().out

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            qlint_main(["--format", "yaml"])
        assert exit_.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_github_format_emits_annotations(self, bad_tree, capsys):
        assert qlint_main([str(bad_tree), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=QD001" in out

    def test_github_format_clean_tree(self, clean_tree, capsys):
        assert qlint_main([str(clean_tree), "--format", "github"]) == 0
        assert "::error" not in capsys.readouterr().out

    def test_stats_reports_findings_by_rule(self, bad_tree, capsys, tmp_path):
        out_file = tmp_path / "stats.json"
        assert qlint_main(
            [str(bad_tree), "--stats", "--output", str(out_file)]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "qlint-stats/2"
        assert payload["findings"]["by_rule"] == {"QD001": 1}
        assert json.loads(out_file.read_text()) == payload

    def test_malformed_baseline_is_usage_error(
        self, bad_tree, capsys, tmp_path
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            '{"entries": [{"rule": "QD001", "path": "x.py"}]}'
        )
        assert qlint_main(
            [str(bad_tree), "--baseline", str(baseline)]
        ) == 2
        assert "justification" in capsys.readouterr().err


class TestDefaultScope:
    def test_repro_package_is_clean(self):
        """Acceptance criterion: qlint runs clean on ``src/repro``."""
        assert run_suite() == []


class TestPytestPlugin:
    PASSING_TEST = "def test_truth():\n    assert True\n"

    def test_violation_fails_the_session(self, pytester, bad_tree):
        pytester.makepyfile(test_something=self.PASSING_TEST)
        result = pytester.runpytest(
            "-p",
            "repro.qlint.pytest_plugin",
            f"--qlint-paths={bad_tree}",
        )
        result.assert_outcomes(passed=1, failed=1)
        result.stdout.fnmatch_lines(["*QD001*"])

    def test_clean_tree_passes(self, pytester, clean_tree):
        pytester.makepyfile(test_something=self.PASSING_TEST)
        result = pytester.runpytest(
            "-p",
            "repro.qlint.pytest_plugin",
            f"--qlint-paths={clean_tree}",
        )
        result.assert_outcomes(passed=2)

    def test_no_qlint_skips_the_item(self, pytester, bad_tree):
        pytester.makepyfile(test_something=self.PASSING_TEST)
        result = pytester.runpytest(
            "-p",
            "repro.qlint.pytest_plugin",
            f"--qlint-paths={bad_tree}",
            "--no-qlint",
        )
        result.assert_outcomes(passed=1)

    def test_targeted_node_run_not_gated(self, pytester, bad_tree):
        pytester.makepyfile(test_something=self.PASSING_TEST)
        result = pytester.runpytest(
            "-p",
            "repro.qlint.pytest_plugin",
            f"--qlint-paths={bad_tree}",
            "test_something.py::test_truth",
        )
        result.assert_outcomes(passed=1)
