"""Orchestrates the analyzers over a file set.

Default scope (when no paths are given): the protocol packages named in
the determinism contract — ``sim``, ``sds``, ``autonomic``, ``reconfig``
— plus ``common`` and ``net`` for the determinism and concurrency rules,
and all of ``src/repro`` for the cross-file quorum-safety and protocol
rules.  Explicit paths run every analyzer over exactly those paths (that
is what the fixture tests and CI do).

Suppression layers, outermost first:

* ``[tool.qlint] nondeterminism_allowed`` — path prefixes whose QD001/2
  findings are waived (the live runtime is nondeterministic by nature);
* ``[tool.qlint.allow]`` — per-rule path-prefix waivers
  (``QC003 = ["harness/"]``), for rules that do not apply to a package;
* ``qlint-baseline.json`` — individually reviewed, justified findings
  (see :mod:`repro.qlint.baseline`); stale entries become ``QL001``
  warnings;
* ``# qlint: ok RULE`` line pragmas, handled inside each linter.

A whole-run result cache (``--cache DIR``) keys on the sha256 of every
analyzed file plus the suppression configuration — the cross-file rules
make per-file caching unsound, but a clean CI re-run on identical
sources is a single digest lookup.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.qlint import baseline as baseline_mod
from repro.qlint.astutils import (
    SourceFile,
    _pragma_lines,
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
#: is in scope too: its wall-clock/entropy use is waived file-by-file
#: via the ``[tool.qlint] nondeterminism_allowed`` prefixes, while
#: QD003/QD004 and the QC rules stay enforced there — a blanket skip
#: would lose those.
DETERMINISM_PACKAGES = (
    "sim", "sds", "autonomic", "reconfig", "common", "net"
)

#: Bump when rule semantics change — invalidates result caches.
RULESET_VERSION = "4"

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


def _pyproject_path(pyproject: Optional[Path]) -> Path:
    if pyproject is not None:
        return pyproject
    return repro_root().parent.parent / "pyproject.toml"


def _load_toml_tool_qlint(path: Path) -> Optional[dict]:
    """``[tool.qlint]`` as a dict via tomllib, or None if unavailable."""
    if not path.exists():
        return {}
    text = path.read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:
        return None
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError:
        return {}
    section = data.get("tool", {}).get("qlint", {})
    return section if isinstance(section, dict) else {}


def load_nondeterminism_allowlist(
    pyproject: Optional[Path] = None,
) -> tuple[str, ...]:
    """``[tool.qlint] nondeterminism_allowed`` path prefixes.

    Read from the repo's ``pyproject.toml`` (or an explicit path, for
    tests).  Uses :mod:`tomllib` where available (3.11+) and a minimal
    line parser on older interpreters — the repo supports 3.9 and must
    not grow a toml dependency for one key.
    """
    path = _pyproject_path(pyproject)
    section = _load_toml_tool_qlint(path)
    if section is None:
        return _parse_allowlist_fallback(
            path.read_text(encoding="utf-8")
        )
    entries = section.get("nondeterminism_allowed")
    if not isinstance(entries, list):
        return ()
    return tuple(str(entry) for entry in entries)


def load_rule_allowlists(
    pyproject: Optional[Path] = None,
) -> Dict[str, Tuple[str, ...]]:
    """Per-rule path-prefix waivers from ``[tool.qlint.allow]``.

    Maps rule id -> package-relative path prefixes whose findings for
    that rule are waived (reported in ``--stats`` as suppression debt,
    dropped from the gating output).
    """
    path = _pyproject_path(pyproject)
    section = _load_toml_tool_qlint(path)
    if section is None:
        return _parse_section_arrays_fallback(
            path.read_text(encoding="utf-8"), "[tool.qlint.allow]"
        )
    allow = section.get("allow")
    if not isinstance(allow, dict):
        return {}
    return {
        str(rule): tuple(str(prefix) for prefix in prefixes)
        for rule, prefixes in allow.items()
        if isinstance(prefixes, list)
    }


def _parse_section_arrays_fallback(
    text: str, header: str
) -> Dict[str, Tuple[str, ...]]:
    """Every ``key = [ ... ]`` string array in one toml section,
    without a toml parser (3.9/3.10 fallback)."""
    in_section = False
    arrays: Dict[str, Tuple[str, ...]] = {}
    key: Optional[str] = None
    fragments: list[str] = []

    def flush() -> None:
        nonlocal key, fragments
        if key is None:
            return
        joined = " ".join(fragments)
        if "[" in joined and "]" in joined:
            inner = joined[joined.index("[") + 1: joined.index("]")]
            values = tuple(
                part.strip().strip("'\"")
                for part in inner.split(",")
                if part.strip().strip("'\"")
            )
            arrays[key] = values
        key = None
        fragments = []

    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if line.startswith("["):
            flush()
            if in_section:
                break
            in_section = line == header
            continue
        if not in_section or not line:
            continue
        if key is not None:
            fragments.append(line)
            if "]" in line:
                flush()
            continue
        name, eq, rest = line.partition("=")
        if not eq:
            continue
        key = name.strip()
        fragments = [rest.strip()]
        if "]" in rest:
            flush()
    flush()
    return arrays


def _parse_allowlist_fallback(text: str) -> tuple[str, ...]:
    """Extract the one array we need without a toml parser."""
    arrays = _parse_section_arrays_fallback(text, "[tool.qlint]")
    return arrays.get("nondeterminism_allowed", ())


# ---------------------------------------------------------------------------
# suite execution
# ---------------------------------------------------------------------------


@dataclass
class SuiteReport:
    """Everything one suite run produced, including what was waived."""

    findings: list[Finding] = field(default_factory=list)
    waived: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_entries: list[BaselineEntry] = field(default_factory=list)
    files: int = 0
    pragma_rule_counts: Dict[str, int] = field(default_factory=dict)
    baseline_entry_count: int = 0

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "waived": [f.to_dict() for f in self.waived],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_entries": [
                {
                    "rule": e.rule,
                    "path": e.path,
                    "symbol": e.symbol,
                    "justification": e.justification,
                }
                for e in self.stale_entries
            ],
            "files": self.files,
            "pragma_rule_counts": dict(
                sorted(self.pragma_rule_counts.items())
            ),
            "baseline_entry_count": self.baseline_entry_count,
        }

    @staticmethod
    def from_dict(data: dict) -> "SuiteReport":
        def findings_of(key: str) -> list[Finding]:
            return [
                Finding(
                    path=raw["path"],
                    line=raw["line"],
                    column=raw["column"],
                    rule=raw["rule"],
                    message=raw["message"],
                    severity=Severity(raw["severity"]),
                    symbol=raw.get("symbol", ""),
                )
                for raw in data.get(key, [])
            ]

        return SuiteReport(
            findings=findings_of("findings"),
            waived=findings_of("waived"),
            baselined=findings_of("baselined"),
            stale_entries=[
                BaselineEntry(
                    rule=raw["rule"],
                    path=raw["path"],
                    symbol=raw["symbol"],
                    justification=raw["justification"],
                )
                for raw in data.get("stale_entries", [])
            ],
            files=data.get("files", 0),
            pragma_rule_counts=dict(data.get("pragma_rule_counts", {})),
            baseline_entry_count=data.get("baseline_entry_count", 0),
        )


def _read_files(
    paths: Sequence[Path],
) -> list[tuple[Path, Optional[str]]]:
    """Read every python file's text (None for undecodable files)."""
    out: list[tuple[Path, Optional[str]]] = []
    for path in iter_python_files(list(paths)):
        try:
            out.append((path, path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError):
            out.append((path, None))
    return out


def _parse_texts(
    files: Iterable[tuple[Path, Optional[str]]],
) -> tuple[list[SourceFile], list[Finding]]:
    sources: list[SourceFile] = []
    errors: list[Finding] = []
    for path, text in files:
        if text is None:
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
            continue
        try:
            tree = ast.parse(text, filename=str(path))
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
            continue
        sources.append(
            SourceFile(
                path=path,
                source=text,
                tree=tree,
                pragmas=_pragma_lines(text),
            )
        )
    return sources, errors


def _cache_digest(
    files: Sequence[tuple[Path, Optional[str]]],
    nondeterminism_allowed: Sequence[str],
    rule_allow: Mapping[str, Sequence[str]],
    baseline_entries: Sequence[BaselineEntry],
) -> str:
    hasher = hashlib.sha256()
    hasher.update(RULESET_VERSION.encode())
    hasher.update(repr(tuple(nondeterminism_allowed)).encode())
    hasher.update(
        repr(sorted((k, tuple(v)) for k, v in rule_allow.items())).encode()
    )
    hasher.update(
        repr(
            sorted(
                (e.rule, e.path, e.symbol, e.justification)
                for e in baseline_entries
            )
        ).encode()
    )
    for path, text in sorted(
        files, key=lambda item: relative_to_repro(item[0])
    ):
        hasher.update(relative_to_repro(path).encode())
        hasher.update(b"\x00")
        hasher.update((text or "").encode())
        hasher.update(b"\x01")
    return hasher.hexdigest()


def run_suite_report(
    paths: Optional[Sequence[Path]] = None,
    nondeterminism_allowed: Optional[Sequence[str]] = None,
    rule_allow: Optional[Mapping[str, Sequence[str]]] = None,
    baseline_path: Optional[Path] = None,
    use_baseline: bool = True,
    cache_dir: Optional[Path] = None,
) -> SuiteReport:
    """Run every analyzer and report findings plus everything waived."""
    if nondeterminism_allowed is None:
        nondeterminism_allowed = load_nondeterminism_allowlist()
    if rule_allow is None:
        rule_allow = load_rule_allowlists()

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
        files = _read_files([root])

        def in_determinism_scope(path: Path) -> bool:
            relative = relative_to_repro(path)
            return any(
                relative.startswith(package + "/")
                for package in scoped_packages
            )

    else:
        files = _read_files(list(paths))

        def in_determinism_scope(path: Path) -> bool:
            return True

    if cache_dir is not None:
        digest = _cache_digest(
            files, nondeterminism_allowed, rule_allow, baseline_entries
        )
        cache_file = Path(cache_dir) / f"qlint-{digest}.json"
        if cache_file.exists():
            try:
                return SuiteReport.from_dict(
                    json.loads(cache_file.read_text(encoding="utf-8"))
                )
            except (ValueError, KeyError):
                pass

    sources, parse_errors = _parse_texts(files)
    raw: list[Finding] = list(parse_errors)

    determinism_linter = DeterminismLinter(
        nondeterminism_allowed=nondeterminism_allowed
    )
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

    raw = sorted(set(raw))

    # Per-rule allowlist waivers.
    kept: list[Finding] = []
    waived: list[Finding] = []
    for finding in raw:
        prefixes = rule_allow.get(finding.rule, ())
        relative = relative_to_repro(Path(finding.path))
        if any(relative.startswith(prefix) for prefix in prefixes):
            waived.append(finding)
        else:
            kept.append(finding)

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
        analyzed = {relative_to_repro(path) for path, _text in files}
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

    report = SuiteReport(
        findings=kept,
        waived=waived,
        baselined=baselined,
        stale_entries=stale,
        files=len(files),
        pragma_rule_counts=pragma_rule_counts,
        baseline_entry_count=len(baseline_entries),
    )

    if cache_dir is not None:
        cache_path = Path(cache_dir)
        cache_path.mkdir(parents=True, exist_ok=True)
        cache_file = cache_path / f"qlint-{digest}.json"
        cache_file.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True),
            encoding="utf-8",
        )

    return report


def run_suite(
    paths: Optional[Sequence[Path]] = None,
    select: Optional[Sequence[str]] = None,
    nondeterminism_allowed: Optional[Sequence[str]] = None,
    rule_allow: Optional[Mapping[str, Sequence[str]]] = None,
    baseline_path: Optional[Path] = None,
    use_baseline: bool = True,
    cache_dir: Optional[Path] = None,
) -> list[Finding]:
    """Run every analyzer; return the combined, filtered finding list.

    ``paths=None`` selects the default scope described in the module
    docstring.  ``select`` restricts output to the given rule ids.
    ``nondeterminism_allowed`` overrides the pyproject allowlist (pass
    ``()`` to disable it); ``rule_allow`` likewise overrides
    ``[tool.qlint.allow]``.  The checked-in baseline applies unless
    ``use_baseline=False``.
    """
    report = run_suite_report(
        paths=paths,
        nondeterminism_allowed=nondeterminism_allowed,
        rule_allow=rule_allow,
        baseline_path=baseline_path,
        use_baseline=use_baseline,
        cache_dir=cache_dir,
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
        "schema": "qlint-stats/1",
        "ruleset_version": RULESET_VERSION,
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
            "allowlist_waived": len(report.waived),
            "allowlist_waived_by_rule": by_rule(report.waived),
        },
    }
