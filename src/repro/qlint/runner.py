"""Orchestrates the analyzers over a file set.

Default scope (when no paths are given): the protocol packages named in
the determinism contract — ``sim``, ``sds``, ``autonomic``, ``reconfig``
— plus ``common`` and ``net`` for the determinism and concurrency rules,
and all of ``src/repro`` for the cross-file quorum-safety and protocol
rules.  Explicit paths run every analyzer over exactly those paths (that
is what the fixture tests and CI do).

Two suppression layers, outermost first:

* ``qlint-baseline.json`` — individually reviewed, justified findings
  (see :mod:`repro.qlint.baseline`); stale entries become ``QL001``
  warnings;
* ``# qlint: ok RULE`` line pragmas, handled inside each linter.

The live runtime's QD001/QD002 waiver is rule scope, not suppression:
it lives in code as ``DeterminismLinter.NONDETERMINISM_ALLOWED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.qlint import baseline as baseline_mod
from repro.qlint.astutils import (
    SourceFile,
    iter_python_files,
    relative_to_repro,
)
from repro.qlint.baseline import BaselineEntry
from repro.qlint.concurrency import ConcurrencyLinter
from repro.qlint.determinism import DeterminismLinter
from repro.qlint.findings import Finding, Severity
from repro.qlint.protocol import ProtocolLinter
from repro.qlint.quorum_safety import QuorumSafetyLinter

#: Packages the determinism and concurrency rules walk by default,
#: relative to the ``repro`` package root.  ``net`` (the live runtime)
#: is in scope too: its wall-clock/entropy use is waived by the
#: ``DeterminismLinter.NONDETERMINISM_ALLOWED`` prefixes, while
#: QD003/QD004 and the QC rules stay enforced there — a blanket skip
#: would lose those.
DETERMINISM_PACKAGES = (
    "sim", "sds", "autonomic", "reconfig", "common", "net"
)

ALL_RULES = (
    tuple(DeterminismLinter.rules)
    + tuple(QuorumSafetyLinter.rules)
    + tuple(ConcurrencyLinter.rules)
    + tuple(ProtocolLinter.rules)
)

RULE_SUMMARIES = {
    "QL000": "file cannot be parsed",
    "QL001": "stale baseline entry (warning)",
    "QD001": "unseeded randomness outside common/rng.py",
    "QD002": "wall-clock access in simulated code",
    "QD003": "iteration over an unordered set",
    "QD004": "mutable default argument",
    "QS001": "quorum construction never validated by QuorumSystem",
    "QS002": "reconfiguration site installs an unvalidated plan",
    "QS003": "statically provable strict-quorum violation",
    "QC001": "shared-state check-then-act across a suspension point",
    "QC002": "shared-container iteration with a suspension in the body",
    "QC003": "captured epoch/cfg/plan/ring value stale after suspension",
    "QC004": "captured lease/grant/expiry value stale after suspension",
    "QC005": "timer armed inside any_of([...]) is never cancelled",
    "QP001": "wire-registry exhaustiveness / append-only order",
    "QP002": "quorum-size arithmetic outside the quorum system",
}


def repro_root() -> Path:
    """The installed ``repro`` package directory (i.e. ``src/repro``)."""
    return Path(__file__).resolve().parent.parent


@dataclass
class SuiteReport:
    """Everything one suite run produced, including what was baselined."""

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_entries: list[BaselineEntry] = field(default_factory=list)
    files: int = 0
    pragma_rule_counts: Dict[str, int] = field(default_factory=dict)
    baseline_entry_count: int = 0


def _parse_files(
    paths: Iterable[Path],
) -> tuple[list[SourceFile], list[Finding]]:
    """Parse every file; unreadable or unparsable ones become QL000."""
    sources: list[SourceFile] = []
    errors: list[Finding] = []
    for path in paths:
        try:
            sources.append(SourceFile.parse(path))
        except (OSError, UnicodeDecodeError):
            errors.append(
                Finding(
                    path=str(path),
                    line=1,
                    column=1,
                    rule="QL000",
                    message="cannot read file as utf-8",
                    severity=Severity.ERROR,
                )
            )
        except SyntaxError as exc:
            errors.append(
                Finding(
                    path=str(path),
                    line=getattr(exc, "lineno", 1) or 1,
                    column=1,
                    rule="QL000",
                    message=f"cannot parse file: {exc}",
                    severity=Severity.ERROR,
                )
            )
    return sources, errors


def run_suite_report(
    paths: Optional[Sequence[Path]] = None,
    baseline_path: Optional[Path] = None,
    use_baseline: bool = True,
) -> SuiteReport:
    """Run every analyzer and report findings plus everything baselined."""
    baseline_entries: Tuple[BaselineEntry, ...] = ()
    resolved_baseline = baseline_path
    if use_baseline:
        if resolved_baseline is None:
            resolved_baseline = baseline_mod.default_baseline_path()
        if resolved_baseline.exists():
            baseline_entries = baseline_mod.load_baseline(resolved_baseline)

    if paths is None:
        root = repro_root()
        scoped_packages = tuple(
            package
            for package in DETERMINISM_PACKAGES
            if (root / package).exists()
        )
        files = list(iter_python_files([root]))

        def in_determinism_scope(path: Path) -> bool:
            relative = relative_to_repro(path)
            return any(
                relative.startswith(package + "/")
                for package in scoped_packages
            )

    else:
        files = list(iter_python_files(list(paths)))

        def in_determinism_scope(path: Path) -> bool:
            return True

    sources, parse_errors = _parse_files(files)
    raw: list[Finding] = list(parse_errors)

    determinism_linter = DeterminismLinter()
    concurrency_linter = ConcurrencyLinter()
    for source in sources:
        if in_determinism_scope(source.path):
            raw.extend(determinism_linter.run(source))
            raw.extend(concurrency_linter.run(source))

    quorum_linter = QuorumSafetyLinter()
    quorum_linter.prepare(sources)
    protocol_linter = ProtocolLinter()
    protocol_linter.prepare(sources)
    for source in sources:
        raw.extend(quorum_linter.run(source))
        raw.extend(protocol_linter.run(source))

    kept = sorted(set(raw))

    # Baseline.  An entry is *stale* only when its file was actually
    # analyzed and produced no matching finding; entries whose files are
    # outside this run's scope (fixture trees, partial paths) are simply
    # inapplicable, not stale.
    stale: list[BaselineEntry] = []
    baselined: list[Finding] = []
    if baseline_entries:
        kept, baselined, stale = baseline_mod.apply_baseline(
            kept, baseline_entries
        )
        analyzed = {relative_to_repro(path) for path in files}
        stale = [entry for entry in stale if entry.path in analyzed]
        assert resolved_baseline is not None
        kept.extend(
            baseline_mod.stale_entry_findings(stale, resolved_baseline)
        )
        kept.sort()

    pragma_rule_counts: Dict[str, int] = {}
    for source in sources:
        for rules in source.pragmas.values():
            for rule in rules:
                pragma_rule_counts[rule] = (
                    pragma_rule_counts.get(rule, 0) + 1
                )

    return SuiteReport(
        findings=kept,
        baselined=baselined,
        stale_entries=stale,
        files=len(files),
        pragma_rule_counts=pragma_rule_counts,
        baseline_entry_count=len(baseline_entries),
    )


def run_suite(
    paths: Optional[Sequence[Path]] = None,
    select: Optional[Sequence[str]] = None,
    baseline_path: Optional[Path] = None,
    use_baseline: bool = True,
) -> list[Finding]:
    """Run every analyzer; return the combined, filtered finding list.

    ``paths=None`` selects the default scope described in the module
    docstring.  ``select`` restricts output to the given rule ids.  The
    checked-in baseline applies unless ``use_baseline=False``.
    """
    report = run_suite_report(
        paths=paths,
        baseline_path=baseline_path,
        use_baseline=use_baseline,
    )
    findings = report.findings
    if select:
        wanted = set(select)
        findings = [f for f in findings if f.rule in wanted]
    return findings


def collect_stats(report: SuiteReport) -> dict:
    """The ``--stats`` payload: findings + suppression debt, by rule
    and package, deterministic key order for committing snapshots."""

    def by_rule(findings: Sequence[Finding]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def by_package(findings: Sequence[Finding]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in findings:
            relative = relative_to_repro(Path(finding.path))
            package = relative.split("/", 1)[0] if "/" in relative else "."
            counts[package] = counts.get(package, 0) + 1
        return dict(sorted(counts.items()))

    return {
        "schema": "qlint-stats/2",
        "files": report.files,
        "findings": {
            "total": len(report.findings),
            "errors": sum(
                1 for f in report.findings if f.severity.fails_build
            ),
            "warnings": sum(
                1 for f in report.findings if not f.severity.fails_build
            ),
            "by_rule": by_rule(report.findings),
            "by_package": by_package(report.findings),
        },
        "suppressions": {
            "pragma_mentions_by_rule": dict(
                sorted(report.pragma_rule_counts.items())
            ),
            "baseline_entries": report.baseline_entry_count,
            "baseline_matched_findings": len(report.baselined),
            "baseline_matched_by_rule": by_rule(report.baselined),
            "baseline_stale_entries": len(report.stale_entries),
        },
    }
