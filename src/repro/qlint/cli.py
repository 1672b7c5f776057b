"""``python -m repro qlint`` (or ``python -m repro.qlint``) — run the
protocol-invariant linters; :mod:`repro.cli` parses the flags.

Exit code 0 when clean (or warnings only), 1 when any error-severity
finding is present, 2 on usage errors.  ``--format json`` emits a
machine-readable report for CI; ``--format github`` emits workflow
annotation commands that surface inline on PR diffs.  ``--stats``
prints the suppression-debt summary instead of findings (optionally to
``--output``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.qlint.findings import (
    exit_code,
    render_github,
    render_json,
    render_text,
)
from repro.qlint.runner import (
    ALL_RULES,
    RULE_SUMMARIES,
    collect_stats,
    run_suite_report,
)


def run_command(args: argparse.Namespace) -> int:
    """Run a parsed ``qlint`` command line; returns the exit code."""
    if args.list_rules:
        for rule in ("QL000", "QL001") + tuple(ALL_RULES):
            print(f"{rule}  {RULE_SUMMARIES[rule]}")
        return 0
    if args.select:
        unknown = set(args.select) - set(RULE_SUMMARIES)
        if unknown:
            print(
                f"unknown rule id(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
    for path in args.paths:
        if not path.exists():
            print(f"no such path: {path}", file=sys.stderr)
            return 2
    if args.baseline is not None and not args.baseline.exists():
        print(f"no such baseline file: {args.baseline}", file=sys.stderr)
        return 2

    try:
        report = run_suite_report(
            paths=args.paths or None,
            baseline_path=args.baseline,
            use_baseline=not args.no_baseline,
        )
    except ValueError as exc:  # malformed baseline
        print(f"qlint: {exc}", file=sys.stderr)
        return 2

    findings = report.findings
    if args.select:
        wanted = set(args.select)
        findings = [f for f in findings if f.rule in wanted]

    if args.stats:
        rendered = json.dumps(
            collect_stats(report), indent=2, sort_keys=True
        )
    elif args.format == "json":
        rendered = render_json(findings)
    elif args.format == "github":
        rendered = render_github(findings)
    else:
        rendered = render_text(findings)

    print(rendered)
    if args.output is not None:
        args.output.write_text(rendered + "\n", encoding="utf-8")
    return exit_code(findings)
