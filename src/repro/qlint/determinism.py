"""Determinism linters (rules QD001-QD004).

The simulator's contract is bit-for-bit reproducibility for a given
seed: Figures 2/3 and the 170-workload training sweep must come out
identical run-to-run.  Every stochastic draw therefore goes through
``repro.common.rng`` substreams and every ordering that feeds message
dispatch must be defined by the code, not by hash randomization.  These
AST rules mechanically enforce that contract:

QD001  unseeded-randomness
    Module-level calls into ``random`` / ``numpy.random`` (or other
    entropy sources: ``os.urandom``, ``uuid.uuid4``, ``secrets``)
    outside ``common/rng.py``.  Seeded constructions —
    ``random.Random(seed)``, ``numpy.random.default_rng(seed)`` — are
    allowed; their zero-argument forms (OS-entropy seeded) are not.

QD002  wall-clock-access
    ``time.time()``, ``time.monotonic()``, ``datetime.now()`` and
    friends.  Simulated components must read ``sim.now``.

QD003  unordered-iteration
    Iterating a ``set``/``frozenset`` expression (literal, comprehension,
    constructor call, set algebra, or a local variable bound to one) in a
    ``for`` loop or comprehension.  String hashing is randomized per
    process, so set order is not reproducible; iterate ``sorted(...)``.

QD004  mutable-default-argument
    A ``list``/``dict``/``set`` default is shared across calls — state
    leaks between simulation runs in the same process.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional, Sequence

from repro.qlint.astutils import ImportMap, SourceFile, relative_to_repro
from repro.qlint.findings import Finding, Severity

#: Files allowed to touch raw entropy: the seed-derivation module itself.
RNG_SANCTUARY = ("common/rng.py",)

#: Seeded-stream constructors: fine with arguments, flagged bare.
_SEEDED_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "numpy.random.Generator",
    }
)

#: Call prefixes that consume ambient (process-global) entropy.
_ENTROPY_PREFIXES = ("random.", "numpy.random.", "secrets.")
_ENTROPY_EXACT = frozenset(
    {"os.urandom", "os.getrandom", "uuid.uuid4", "uuid.uuid1"}
)

#: Wall-clock reads; simulated code must use ``sim.now``.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.clock_gettime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Wrappers that preserve their argument's iteration order.
_ORDER_PRESERVING = frozenset({"list", "tuple", "enumerate", "reversed", "iter"})


def _in_sanctuary(path: Path) -> bool:
    text = str(path).replace("\\", "/")
    return any(text.endswith(suffix) for suffix in RNG_SANCTUARY)


class DeterminismLinter:
    """AST walker producing QD001-QD004 findings for one file.

    ``nondeterminism_allowed`` is a list of package-relative path
    prefixes (default :data:`NONDETERMINISM_ALLOWED`, i.e. ``net/``)
    whose files may legitimately read ambient entropy and the wall
    clock — the live runtime *is* nondeterministic by nature.  The
    allowlist suppresses exactly :data:`ALLOWLIST_RULES`; set-iteration
    order (QD003) and shared mutable defaults (QD004) remain bugs in
    live code too and are still enforced there.
    """

    rules = ("QD001", "QD002", "QD003", "QD004")

    #: The default ``nondeterminism_allowed``: the live runtime.
    NONDETERMINISM_ALLOWED = ("net/",)

    #: The rules an allowlist entry waives — never QD003/QD004.
    ALLOWLIST_RULES = frozenset({"QD001", "QD002"})

    def __init__(
        self, nondeterminism_allowed: Sequence[str] = NONDETERMINISM_ALLOWED
    ) -> None:
        self._allowed = tuple(nondeterminism_allowed)

    def _waived(self, path: Path) -> bool:
        relative = relative_to_repro(path)
        return any(relative.startswith(prefix) for prefix in self._allowed)

    def run(self, source: SourceFile) -> list[Finding]:
        imports = ImportMap(source.tree)
        findings: list[Finding] = []
        findings.extend(self._check_entropy_and_clock(source, imports))
        findings.extend(self._check_set_iteration(source))
        findings.extend(self._check_mutable_defaults(source))
        if self._allowed and self._waived(source.path):
            findings = [
                finding
                for finding in findings
                if finding.rule not in self.ALLOWLIST_RULES
            ]
        return [
            finding
            for finding in findings
            if not source.suppressed(finding.line, finding.rule)
        ]

    # -- QD001 / QD002 -----------------------------------------------------

    def _check_entropy_and_clock(
        self, source: SourceFile, imports: ImportMap
    ) -> list[Finding]:
        findings: list[Finding] = []
        sanctuary = _in_sanctuary(source.path)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve_call(node.func)
            if resolved is None:
                continue
            if resolved in _WALL_CLOCK:
                findings.append(
                    self._finding(
                        source,
                        node,
                        "QD002",
                        f"wall-clock access `{resolved}()` — simulated "
                        "components must read `sim.now`",
                    )
                )
                continue
            if sanctuary:
                continue
            if resolved in _SEEDED_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    findings.append(
                        self._finding(
                            source,
                            node,
                            "QD001",
                            f"`{resolved}()` without a seed draws OS "
                            "entropy — pass a seed derived via "
                            "`repro.common.rng`",
                        )
                    )
                continue
            if resolved in _ENTROPY_EXACT or resolved.startswith(
                _ENTROPY_PREFIXES
            ):
                findings.append(
                    self._finding(
                        source,
                        node,
                        "QD001",
                        f"unseeded randomness `{resolved}()` — draw from "
                        "a `repro.common.rng` substream instead",
                    )
                )
        return findings

    # -- QD003 -------------------------------------------------------------

    def _check_set_iteration(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        set_vars = _set_valued_names(source.tree)
        for node in ast.walk(source.tree):
            iterables: list[ast.expr] = []
            if isinstance(node, ast.For):
                iterables.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                if _is_set_expr(iterable, set_vars):
                    findings.append(
                        self._finding(
                            source,
                            iterable,
                            "QD003",
                            "iteration over an unordered set — hash "
                            "randomization makes the order "
                            "irreproducible; iterate `sorted(...)`",
                        )
                    )
        return findings

    # -- QD004 -------------------------------------------------------------

    def _check_mutable_defaults(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default
            ]
            for default in defaults:
                if _is_mutable_literal(default):
                    findings.append(
                        self._finding(
                            source,
                            default,
                            "QD004",
                            "mutable default argument is shared across "
                            "calls — default to None (or use "
                            "`dataclasses.field(default_factory=...)`)",
                        )
                    )
        return findings

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _finding(
        source: SourceFile, node: ast.AST, rule: str, message: str
    ) -> Finding:
        return Finding(
            path=str(source.path),
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
            severity=Severity.ERROR,
        )


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray"}
    return False


def _set_valued_names(tree: ast.Module) -> set[str]:
    """Names assigned a set-typed expression anywhere in the file.

    A coarse (flow-insensitive) approximation: good enough to catch
    ``pending = set(...) ... for x in pending`` while never flagging
    names that are only ever bound to ordered collections.  A name also
    counts when annotated ``x: set[...] = ...``.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
            base = annotation
            if isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Name) and base.id in {
                "set",
                "frozenset",
                "Set",
                "FrozenSet",
            }:
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
            continue
        if value is None or not _is_set_expr(value, names):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _is_set_expr(node: ast.expr, set_vars: set[str]) -> bool:
    """Is this expression (recursively) an unordered set value?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_vars
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_vars) or _is_set_expr(
            node.right, set_vars
        )
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            if node.func.id in {"set", "frozenset"}:
                return True
            if node.func.id in _ORDER_PRESERVING and node.args:
                return _is_set_expr(node.args[0], set_vars)
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        }:
            return _is_set_expr(node.func.value, set_vars)
    return False


__all__ = ["DeterminismLinter", "RNG_SANCTUARY"]
