"""qlint — static analysis for Q-OPT's protocol invariants.

Four analyzer families over the ``repro`` source tree:

* **Determinism linters** (QD001-QD004): the discrete-event simulator
  must be bit-for-bit reproducible per seed, so unseeded randomness,
  wall-clock reads, unordered-set iteration and mutable default
  arguments are errors in protocol code.
* **Quorum-safety analyzer** (QS001-QS003): every ``QuorumConfig`` /
  ``QuorumPlan`` that can reach the data plane must pass through
  ``QuorumSystem.require_strict*``, and literal configurations the
  system rejects are reported at lint time.
* **Concurrency analyzer** (QC001-QC005): CFG-based interleaving checks
  across suspension points (``await`` / simulator ``yield``) —
  check-then-act races, shared-container iteration, stale
  epoch/cfg/plan/ring and lease captures, and deadlines armed inside
  ``any_of`` that nothing cancels.
* **Protocol analyzer** (QP001-QP002): wire-registry exhaustiveness and
  append-only ordering, plus a ban on quorum-size arithmetic outside
  the quorum system.

Run via ``python -m repro.qlint`` or through the bundled pytest plugin
(``repro.qlint.pytest_plugin``), which tier-1 test runs load.  See
``docs/QLINT.md`` for the rule catalog, baseline/allowlist workflow,
and CI integration.
"""

from repro.qlint.baseline import BaselineEntry, load_baseline
from repro.qlint.concurrency import ConcurrencyLinter
from repro.qlint.determinism import DeterminismLinter
from repro.qlint.findings import (
    Finding,
    Severity,
    exit_code,
    render_github,
    render_json,
    render_text,
)
from repro.qlint.protocol import ProtocolLinter, WIRE_REGISTRY_GOLDEN
from repro.qlint.quorum_safety import QuorumSafetyLinter
from repro.qlint.runner import (
    ALL_RULES,
    RULE_SUMMARIES,
    SuiteReport,
    collect_stats,
    run_suite,
    run_suite_report,
)

__all__ = [
    "ALL_RULES",
    "RULE_SUMMARIES",
    "BaselineEntry",
    "ConcurrencyLinter",
    "DeterminismLinter",
    "Finding",
    "ProtocolLinter",
    "QuorumSafetyLinter",
    "Severity",
    "SuiteReport",
    "WIRE_REGISTRY_GOLDEN",
    "collect_stats",
    "exit_code",
    "load_baseline",
    "render_github",
    "render_json",
    "render_text",
    "run_suite",
    "run_suite_report",
]
