"""Quorum-safety static analysis (rules QS001-QS003).

Strong consistency in Q-OPT rests on one invariant: every installed
(R, W) pair is *strict* for the replication degree N (Section 2.1).
One class defines it, :class:`repro.sds.quorum.QuorumSystem`, and its
``require_strict``/``require_strict_plan``/``admits`` methods are the
runtime enforcement points.  This analyzer proves, file-set wide, that
no quorum value reaches the data plane without passing through one:

QS001  unvalidated-quorum-construction
    A ``QuorumConfig``/``QuorumPlan`` construction (or plan-algebra
    builder call: ``uniform``, ``with_overrides``, ``with_default``)
    whose result is neither passed to a validating method nor escapes
    to a caller (return value / lambda body — in which case the
    *installation* site is checked instead, see QS002).  Values made by
    ``QuorumConfig.from_write`` or a ``QuorumSystem`` method are strict
    by construction and are not constructions in this sense.

QS002  unvalidated-reconfiguration-site
    A function that broadcasts a ``NewQuorum``/``Confirm`` protocol
    message, or a reconfiguration entry point (``change_*`` /
    ``_reconfigure``), must validate — directly, or by delegating to a
    function that (transitively) calls a validating method.

QS003  provably-broken-intersection
    Wherever R, W and N are all integer literals (a
    ``QuorumSystem(n).require_strict(QuorumConfig(r, w))`` chain, an
    ``initial_quorum=`` inside a ``ClusterConfig(...)`` call, or
    ``from_write(w, n)``), build the values and ask ``QuorumSystem``
    itself at lint time, reporting configurations it rejects — these
    would only fail at runtime on the path that installs them.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Optional

from repro.common.errors import ConfigurationError
from repro.common.types import QuorumConfig
from repro.qlint.astutils import (
    SourceFile,
    call_name,
    dotted_name,
    int_literal,
)
from repro.qlint.findings import Finding, Severity
from repro.sds.quorum import QuorumSystem

#: Final call-name segments that produce a quorum value to be checked.
_CONSTRUCTORS = frozenset({"QuorumConfig", "QuorumPlan"})
_PLAN_BUILDERS = frozenset({"with_overrides", "with_default"})

#: ``QuorumSystem`` methods that validate the quorum passed to them.
#: Matching is by name, so these stay distinctive.
_VALIDATING_METHODS = frozenset(
    {"require_strict", "require_strict_plan", "admits"}
)

#: Protocol messages whose construction marks an installation site.
_INSTALL_MESSAGES = frozenset({"NewQuorum", "Confirm"})

#: Containers the analyzer walks through when following a value to a
#: ``return`` statement.
_TRANSPARENT = (
    ast.List,
    ast.Tuple,
    ast.Dict,
    ast.IfExp,
    ast.BoolOp,
    ast.Starred,
    ast.ListComp,
    ast.GeneratorExp,
)


def _final_segment(name: Optional[str]) -> Optional[str]:
    return name.rsplit(".", 1)[-1] if name else None


def _callee(node: ast.Call) -> Optional[str]:
    """Final name of a call target, also for chains like ``f(x).m(...)``."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_plan_producing(node: ast.Call) -> bool:
    name = call_name(node)
    final = _final_segment(name)
    if final in _CONSTRUCTORS or final in _PLAN_BUILDERS:
        return True
    # ``uniform`` is too generic a method name (``rng.uniform``!): only
    # the classmethod spelled through the QuorumPlan class counts.
    return name == "QuorumPlan.uniform" or (
        name is not None and name.endswith(".QuorumPlan.uniform")
    )


def _rejection(build: Callable[[], object]) -> Optional[str]:
    """The ``ConfigurationError`` message ``build()`` raises, if any."""
    try:
        build()
    except ConfigurationError as exc:
        return str(exc)
    return None


class QuorumSafetyLinter:
    """File-set aware analyzer for QS001-QS003.

    ``prepare`` must run over the whole file set first: it computes the
    transitive set of *validating* function names (those that call a
    validating ``QuorumSystem`` method, directly or through a callee)
    and the dataclass fields that are validated by their owning class
    (e.g. ``ClusterConfig.initial_quorum``), so that cross-file
    delegation is recognized.
    """

    rules = ("QS001", "QS002", "QS003")

    def __init__(self) -> None:
        self.validating_names: set[str] = set(_VALIDATING_METHODS)
        #: class name -> field names some method validates via
        #: ``<system>.require_strict(self.<field>)``.
        self.validated_fields: dict[str, set[str]] = {}
        #: Statically known default replication degree (from the
        #: ``ClusterConfig`` dataclass, when it is in the file set).
        self.default_replication_degree: Optional[int] = None

    # -- cross-file context ------------------------------------------------

    def prepare(self, sources: Iterable[SourceFile]) -> None:
        calls_in: dict[str, set[str]] = {}
        for source in sources:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    self._scan_class(node)
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                called = {
                    segment
                    for segment in (
                        _callee(call)
                        for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                    )
                    if segment
                }
                calls_in.setdefault(node.name, set()).update(called)
        # Fixpoint: a function is validating if it calls a validating
        # name.  Name-based (not call-graph exact) — deliberately
        # conservative in the "considers validating" direction only for
        # names that do validate somewhere in the file set.
        changed = True
        while changed:
            changed = False
            for name, called in calls_in.items():
                if name not in self.validating_names and (
                    called & self.validating_names
                ):
                    self.validating_names.add(name)
                    changed = True

    def _scan_class(self, node: ast.ClassDef) -> None:
        fields: set[str] = set()
        for item in ast.walk(node):
            if not (
                isinstance(item, ast.Call)
                and _callee(item) in _VALIDATING_METHODS
            ):
                continue
            for arg in item.args:
                parts = (dotted_name(arg) or "").split(".")
                if len(parts) == 2 and parts[0] == "self":
                    fields.add(parts[1])
        if fields:
            self.validated_fields.setdefault(node.name, set()).update(fields)
        if node.name == "ClusterConfig":
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.target.id == "replication_degree"
                    and item.value is not None
                ):
                    self.default_replication_degree = int_literal(item.value)

    # -- per-file analysis -------------------------------------------------

    def run(self, source: SourceFile) -> list[Finding]:
        parents: dict[ast.AST, ast.AST] = {}
        enclosing: dict[ast.AST, Optional[ast.AST]] = {}

        def index(node: ast.AST, func: Optional[ast.AST]) -> None:
            for child in ast.iter_child_nodes(node):
                parents[child] = node
                child_func = func
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    child_func = node
                enclosing[child] = child_func
                index(child, child_func)

        index(source.tree, None)

        findings: list[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            findings.extend(self._check_literals(source, node))
            if _is_plan_producing(node):
                findings.extend(
                    self._check_construction(
                        source, node, parents, enclosing.get(node)
                    )
                )
            if _callee(node) in _INSTALL_MESSAGES:
                findings.extend(
                    self._check_install_site(source, enclosing.get(node), node)
                )
        findings.extend(self._check_entry_points(source))
        deduped = sorted(set(findings))
        return [
            finding
            for finding in deduped
            if not source.suppressed(finding.line, finding.rule)
        ]

    # -- QS001 -------------------------------------------------------------

    def _check_construction(
        self,
        source: SourceFile,
        node: ast.Call,
        parents: dict[ast.AST, ast.AST],
        func: Optional[ast.AST],
    ) -> list[Finding]:
        if self._value_is_discharged(node, parents, func):
            return []
        return [
            self._finding(
                source,
                node,
                "QS001",
                f"`{call_name(node)}(...)` result never reaches "
                "`QuorumSystem.require_strict*` in this scope and does not "
                "escape to a caller — quorum values must be validated "
                "before use",
            )
        ]

    def _value_is_discharged(
        self,
        node: ast.expr,
        parents: dict[ast.AST, ast.AST],
        func: Optional[ast.AST],
    ) -> bool:
        """Does this expression's value provably reach validation (or a
        caller who is responsible for it)?"""
        parent = parents.get(node)
        # Walk up through transparent containers toward the real use.
        while isinstance(parent, _TRANSPARENT):
            node = parent  # type: ignore[assignment]
            parent = parents.get(parent)
        if parent is None:
            return False
        if isinstance(parent, ast.Return):
            return True
        if isinstance(parent, ast.Lambda) and parent.body is node:
            return True
        if isinstance(parent, ast.Attribute):
            # e.g. ``QuorumPlan.uniform(...).with_overrides(...)`` — the
            # outer builder is itself checked.
            outer = parents.get(parent)
            return (
                isinstance(outer, ast.Call)
                and outer.func is parent
                and _is_plan_producing(outer)
            )
        if isinstance(parent, ast.keyword):
            outer = parents.get(parent)
            if isinstance(outer, ast.Call):
                return self._argument_is_discharged(
                    outer, keyword=parent.arg
                )
            return False
        if isinstance(parent, ast.Call) and node in parent.args:
            return self._argument_is_discharged(parent, keyword=None)
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (
                parent.targets
                if isinstance(parent, ast.Assign)
                else [parent.target]
            )
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names:
                return False
            return any(
                self._name_is_discharged(name, func) for name in names
            )
        return False

    def _argument_is_discharged(
        self, call: ast.Call, keyword: Optional[str]
    ) -> bool:
        final = _callee(call)
        if final in self.validating_names:
            return True
        if _is_plan_producing(call):
            return True
        if keyword is not None and final in self.validated_fields:
            return keyword in self.validated_fields[final]
        return False

    def _name_is_discharged(
        self, name: str, func: Optional[ast.AST]
    ) -> bool:
        if func is None:
            return False
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                if _callee(node) in self.validating_names:
                    for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                    ]:
                        if isinstance(arg, ast.Name) and arg.id == name:
                            return True
            if isinstance(node, ast.Return) and isinstance(
                node.value, ast.Name
            ):
                if node.value.id == name:
                    return True
        return False

    # -- QS002 -------------------------------------------------------------

    def _check_install_site(
        self,
        source: SourceFile,
        func: Optional[ast.AST],
        message: ast.Call,
    ) -> list[Finding]:
        if func is None or not isinstance(
            func, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return []
        if self._function_validates(func):
            return []
        return [
            self._finding(
                source,
                message,
                "QS002",
                f"`{func.name}` broadcasts "
                f"`{_final_segment(call_name(message))}` without calling "
                "`QuorumSystem.require_strict*` (directly or via a "
                "validating callee) — an unvalidated plan could be "
                "installed cluster-wide",
            )
        ]

    def _check_entry_points(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            is_entry = node.name.startswith("change_") or (
                node.name == "_reconfigure"
            )
            if not is_entry:
                continue
            if not self._function_validates(node):
                findings.append(
                    self._finding(
                        source,
                        node,
                        "QS002",
                        f"reconfiguration entry point `{node.name}` "
                        "neither validates its plan nor delegates to a "
                        "validating function",
                    )
                )
        return findings

    def _function_validates(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and _callee(node) in self.validating_names
            ):
                return True
        return False

    # -- QS003 -------------------------------------------------------------

    def _check_literals(
        self, source: SourceFile, node: ast.Call
    ) -> list[Finding]:
        final = _callee(node)
        if final == "from_write":
            return self._check_from_write_literals(source, node)
        if final in _VALIDATING_METHODS:
            return self._check_system_literals(source, node)
        if final == "ClusterConfig":
            return self._check_cluster_literals(source, node)
        return []

    @staticmethod
    def _quorum_literals(
        node: ast.expr,
    ) -> Optional[tuple[int, int]]:
        """(read, write) when ``node`` is a QuorumConfig literal ctor."""
        if not isinstance(node, ast.Call):
            return None
        if _final_segment(call_name(node)) != "QuorumConfig":
            return None
        read = write = None
        positional = [int_literal(arg) for arg in node.args]
        if len(positional) >= 1:
            read = positional[0]
        if len(positional) >= 2:
            write = positional[1]
        for kw in node.keywords:
            if kw.arg == "read":
                read = int_literal(kw.value)
            elif kw.arg == "write":
                write = int_literal(kw.value)
        if read is None or write is None:
            return None
        return read, write

    def _strictness_findings(
        self,
        source: SourceFile,
        node: ast.AST,
        read: int,
        write: int,
        degree: int,
    ) -> list[Finding]:
        reason = _rejection(
            lambda: QuorumSystem(degree).require_strict(
                QuorumConfig(read, write)
            )
        )
        if reason is None:
            return []
        return [
            self._finding(
                source,
                node,
                "QS003",
                f"R={read}, W={write} provably violates strict quorum "
                f"intersection: {reason}",
            )
        ]

    def _check_system_literals(
        self, source: SourceFile, node: ast.Call
    ) -> list[Finding]:
        """``QuorumSystem(<int>).require_strict(QuorumConfig(<int>, <int>))``."""
        receiver = (
            node.func.value if isinstance(node.func, ast.Attribute) else None
        )
        if not (
            isinstance(receiver, ast.Call)
            and _callee(receiver) == "QuorumSystem"
            and receiver.args
            and node.args
        ):
            return []
        degree = int_literal(receiver.args[0])
        pair = self._quorum_literals(node.args[0])
        if degree is None or pair is None:
            return []
        return self._strictness_findings(source, node, *pair, degree)

    def _check_cluster_literals(
        self, source: SourceFile, node: ast.Call
    ) -> list[Finding]:
        degree: Optional[int] = None
        quorum: Optional[tuple[int, int]] = None
        quorum_node: Optional[ast.expr] = None
        if len(node.args) >= 4:
            degree = int_literal(node.args[3])
        for kw in node.keywords:
            if kw.arg == "replication_degree":
                degree = int_literal(kw.value)
            elif kw.arg == "initial_quorum":
                quorum = self._quorum_literals(kw.value)
                quorum_node = kw.value
        if quorum is None or quorum_node is None:
            return []
        if degree is None:
            degree = self.default_replication_degree
        if degree is None:
            return []
        return self._strictness_findings(
            source, quorum_node, *quorum, degree
        )

    def _check_from_write_literals(
        self, source: SourceFile, node: ast.Call
    ) -> list[Finding]:
        write = degree = None
        positional = [int_literal(arg) for arg in node.args]
        if len(positional) >= 1:
            write = positional[0]
        if len(positional) >= 2:
            degree = positional[1]
        for kw in node.keywords:
            if kw.arg == "write":
                write = int_literal(kw.value)
            elif kw.arg == "replication_degree":
                degree = int_literal(kw.value)
        if write is None or degree is None:
            return []
        n, w = degree, write
        reason = _rejection(
            lambda: QuorumSystem(n).require_strict(
                QuorumConfig.from_write(w, n)
            )
        )
        if reason is None:
            return []
        return [
            self._finding(
                source,
                node,
                "QS003",
                f"from_write({write}, {degree}) can never be strict: "
                f"{reason}",
            )
        ]


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
