"""The accepted-findings baseline: justified, line-independent, stale-aware."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.qlint.baseline import (
    BaselineEntry,
    apply_baseline,
    default_baseline_path,
    load_baseline,
)
from repro.qlint.findings import Finding, Severity
from repro.qlint.runner import collect_stats, run_suite, run_suite_report

VIOLATION = """
    import random

    def jitter():
        return random.random()
"""


def _write_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "bad.py").write_text(textwrap.dedent(VIOLATION))
    return tree


def _write_baseline(tmp_path: Path, entries: list) -> Path:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"entries": entries}))
    return path


class TestLoad:
    def test_missing_justification_is_an_error(self, tmp_path):
        path = _write_baseline(
            tmp_path,
            [{"rule": "QD001", "path": "x.py", "symbol": "f"}],
        )
        with pytest.raises(ValueError, match="justification"):
            load_baseline(path)

    def test_every_shipped_entry_is_justified(self):
        """Acceptance criterion: no bare entries in the committed file."""
        for entry in load_baseline(default_baseline_path()):
            assert entry.justification.strip(), entry


class TestApply:
    def _finding(self, line: int) -> Finding:
        return Finding(
            path="/abs/tree/bad.py",
            line=line,
            column=1,
            rule="QD001",
            message="m",
            severity=Severity.ERROR,
            symbol="jitter",
        )

    def test_match_ignores_line_numbers(self):
        entry = BaselineEntry(
            rule="QD001",
            path="/abs/tree/bad.py",
            symbol="jitter",
            justification="because",
        )
        for line in (1, 99):
            kept, baselined, stale = apply_baseline(
                [self._finding(line)], [entry]
            )
            assert kept == [] and len(baselined) == 1 and stale == []

    def test_symbol_mismatch_keeps_finding_and_reports_stale(self):
        entry = BaselineEntry(
            rule="QD001",
            path="/abs/tree/bad.py",
            symbol="other",
            justification="because",
        )
        kept, baselined, stale = apply_baseline([self._finding(5)], [entry])
        assert len(kept) == 1 and baselined == [] and stale == [entry]


class TestSuiteIntegration:
    def test_baselined_finding_is_suppressed(self, tmp_path):
        tree = _write_tree(tmp_path)
        baseline = _write_baseline(
            tmp_path,
            [
                {
                    "rule": "QD001",
                    "path": str(tree / "bad.py"),
                    "symbol": "",
                    "justification": "fixture: accepted for this test",
                }
            ],
        )
        report = run_suite_report(paths=[tree], baseline_path=baseline)
        assert report.findings == []
        assert len(report.baselined) == 1

    def test_no_baseline_reports_everything(self, tmp_path):
        tree = _write_tree(tmp_path)
        findings = run_suite(paths=[tree], use_baseline=False)
        assert [f.rule for f in findings] == ["QD001"]

    def test_stale_entry_for_analyzed_file_warns(self, tmp_path):
        tree = _write_tree(tmp_path)
        baseline = _write_baseline(
            tmp_path,
            [
                {
                    "rule": "QC001",  # wrong rule: matches nothing
                    "path": str(tree / "bad.py"),
                    "symbol": "",
                    "justification": "fixture: deliberately stale",
                }
            ],
        )
        report = run_suite_report(paths=[tree], baseline_path=baseline)
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["QD001", "QL001"]
        (warning,) = [f for f in report.findings if f.rule == "QL001"]
        assert not warning.severity.fails_build
        assert len(report.stale_entries) == 1

    def test_entry_outside_scope_is_not_stale(self, tmp_path):
        """An explicit-path run that never analyzes the baselined file
        must not call its entries stale (fixture trees, partial runs)."""
        tree = _write_tree(tmp_path)
        baseline = _write_baseline(
            tmp_path,
            [
                {
                    "rule": "QC001",
                    "path": "reconfig/manager.py",
                    "symbol": "Nowhere.never",
                    "justification": "fixture: out of this run's scope",
                }
            ],
        )
        report = run_suite_report(paths=[tree], baseline_path=baseline)
        assert [f.rule for f in report.findings] == ["QD001"]
        assert report.stale_entries == []

    def test_default_scope_has_no_stale_entries(self):
        """Acceptance criterion: the shipped baseline is exact — every
        entry matches a real finding in the current tree."""
        report = run_suite_report()
        assert report.stale_entries == []
        assert report.findings == []
        assert len(report.baselined) >= 1

    def test_default_scope_suppression_accounting_is_pinned(self):
        """Every finding the two suppression layers hide, counted
        exactly: an edit to a layer cannot silently swallow or unmask
        one.  Wall time: one default-scope suite run, ~3 s."""
        stats = collect_stats(run_suite_report())
        assert stats["findings"]["total"] == 0
        assert stats["suppressions"] == {
            "baseline_entries": 7,
            "baseline_matched_findings": 8,
            "baseline_matched_by_rule": {"QC001": 3, "QC003": 5},
            "baseline_stale_entries": 0,
            "pragma_mentions_by_rule": {"QD003": 1},
        }
