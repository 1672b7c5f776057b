"""Protocol linters (rules QP001-QP002).

QP001  wire-registry-exhaustiveness
    Every top-level ``@dataclass`` in a ``messages.py`` module must (a)
    appear in a ``WIRE_TYPES`` registry somewhere in the analyzed file
    set and (b) have a ``register_handler(Class, ...)`` call somewhere —
    unless it is *embedded*, i.e. referenced from another message's field
    annotations (value types like ``ObjectStats`` ride inside
    ``RoundStats`` and never get their own handler).  The codec registry
    is positional and append-only: for the canonical codec module the
    registry must start with the golden name sequence below — inserting,
    removing, or reordering entries is a silent wire-format break.

QP002  quorum-arithmetic-outside-the-quorum-system
    A ``QuorumConfig(...)`` whose read or write argument contains
    arithmetic — a binary operation, or a ``min``/``max`` call — outside
    ``sds/quorum.py`` and ``common/types.py``.  Quorum sizes are derived
    in one place, ``QuorumConfig.from_write`` and the ``QuorumSystem``
    methods; arithmetic anywhere else is a second copy of the rule that
    can drift from it — ``n // 2``, ``n - w``, and even a correct
    ``n - w + 1``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.qlint.astutils import (
    SourceFile,
    dotted_name,
    relative_to_repro,
    walk_functions,
)
from repro.qlint.findings import Finding, Severity

#: Golden prefix of the codec's ``WIRE_TYPES`` registry.  Positional
#: codes are the wire format; this pin makes "append-only" machine
#: checked.  Extending the protocol appends names here in the same PR
#: that appends to the registry.
WIRE_REGISTRY_GOLDEN: Tuple[str, ...] = (
    "NodeId",
    "QuorumConfig",
    "VersionStamp",
    "VectorStamp",
    "Version",
    "QuorumPlan",
    "ClientRead",
    "ClientWrite",
    "ClientReadReply",
    "ClientWriteReply",
    "ClientOperationFailed",
    "ReplicaRead",
    "ReplicaReadReply",
    "ReplicaWrite",
    "ReplicaWriteReply",
    "ReplicaSync",
    "EpochNack",
    "NewQuorum",
    "AckNewQuorum",
    "Confirm",
    "AckConfirm",
    "PauseProxy",
    "AckPause",
    "ResumeProxy",
    "NewEpoch",
    "AckNewEpoch",
    "NewRound",
    "ObjectStats",
    "AggregateStats",
    "RoundStats",
    "NewTopK",
    "NewStats",
    "NewQuorums",
    "TailStats",
    "TailQuorum",
    "FineRec",
    "CoarseRec",
    "AckRec",
    "SyncRequest",
    "SyncReply",
    "LeaseRequest",
    "LeaseGrant",
    "LeaseRead",
    "LeaseReadReply",
    "LeaseNack",
)

#: The modules that define quorum sizes; QP002 exempts them.
_QUORUM_MODULES = ("sds/quorum.py", "common/types.py")


def _has_arithmetic(node: ast.expr) -> bool:
    return any(
        isinstance(child, ast.BinOp)
        or (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id in ("min", "max")
        )
        for child in ast.walk(node)
    )


# ---------------------------------------------------------------------------
# the linter
# ---------------------------------------------------------------------------


class ProtocolLinter:
    """Cross-file wire/arithmetic checks (QP001, QP002).

    Like :class:`~repro.qlint.quorum_safety.QuorumSafetyLinter`, call
    :meth:`prepare` with every source in scope before :meth:`run` — the
    message census, registry entries, and handler registrations are
    global facts.
    """

    rules = ("QP001", "QP002")

    def __init__(
        self, golden: Optional[Sequence[str]] = WIRE_REGISTRY_GOLDEN
    ) -> None:
        self._golden = tuple(golden) if golden else ()
        #: message name -> (source path, ClassDef) from messages modules.
        self._messages: Dict[str, Tuple[str, ast.ClassDef]] = {}
        #: message names referenced from other messages' annotations.
        self._embedded: set[str] = set()
        #: union of every WIRE_TYPES registry's entry names.
        self._registered: set[str] = set()
        #: class names passed to ``register_handler``.
        self._handled: set[str] = set()

    # -- cross-file census ---------------------------------------------------

    def prepare(self, sources: Sequence[SourceFile]) -> None:
        self._messages.clear()
        self._embedded.clear()
        self._registered.clear()
        self._handled.clear()
        for source in sources:
            if source.path.name == "messages.py":
                self._collect_messages(source)
            for entries in self._iter_registries(source.tree):
                self._registered.update(entries)
            self._collect_handlers(source.tree)
        annotations: set[str] = set()
        for _name, (_path, node) in sorted(self._messages.items()):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    for child in ast.walk(stmt.annotation):
                        if isinstance(child, ast.Name):
                            annotations.add(child.id)
                        elif isinstance(child, ast.Attribute):
                            annotations.add(child.attr)
                        elif isinstance(child, ast.Constant) and isinstance(
                            child.value, str
                        ):
                            annotations.add(child.value.strip("'\""))
        self._embedded = annotations & set(self._messages)

    def _collect_messages(self, source: SourceFile) -> None:
        for stmt in source.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            is_dataclass = any(
                (isinstance(dec, ast.Name) and dec.id == "dataclass")
                or (
                    isinstance(dec, ast.Call)
                    and isinstance(dec.func, ast.Name)
                    and dec.func.id == "dataclass"
                )
                or (
                    isinstance(dec, ast.Attribute)
                    and dec.attr == "dataclass"
                )
                for dec in stmt.decorator_list
            )
            if is_dataclass:
                self._messages[stmt.name] = (str(source.path), stmt)

    @staticmethod
    def _iter_registries(tree: ast.Module) -> Iterator[List[str]]:
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not isinstance(value, (ast.Tuple, ast.List)):
                continue
            named = any(
                isinstance(t, ast.Name) and t.id == "WIRE_TYPES"
                for t in targets
            )
            if not named:
                continue
            entries: list[str] = []
            for element in value.elts:
                dotted = dotted_name(element)
                if dotted is not None:
                    entries.append(dotted.rsplit(".", 1)[-1])
            yield entries

    def _collect_handlers(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or not dotted.endswith("register_handler"):
                continue
            if not node.args:
                continue
            target = dotted_name(node.args[0])
            if target is not None:
                self._handled.add(target.rsplit(".", 1)[-1])

    # -- per-file run --------------------------------------------------------

    def run(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        if source.path.name == "messages.py":
            findings.extend(self._check_exhaustiveness(source))
        findings.extend(self._check_registry_order(source))
        findings.extend(self._check_quorum_arithmetic(source))
        return [
            finding
            for finding in findings
            if not source.suppressed(finding.line, finding.rule)
        ]

    def _check_exhaustiveness(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        if not self._registered:
            # No registry in scope (e.g. a fixture linting messages.py
            # alone) — exhaustiveness is undecidable, stay silent.
            return findings
        path = str(source.path)
        for name, (owner_path, node) in sorted(self._messages.items()):
            if owner_path != path:
                continue
            if name not in self._registered:
                findings.append(
                    self._finding(
                        source,
                        node,
                        "QP001",
                        f"message dataclass `{name}` is not registered "
                        "in the codec's WIRE_TYPES — it cannot cross "
                        "the wire; append it to the registry",
                        name,
                    )
                )
            if name not in self._handled and name not in self._embedded:
                findings.append(
                    self._finding(
                        source,
                        node,
                        "QP001",
                        f"message dataclass `{name}` has no "
                        "`register_handler(...)` anywhere in scope and "
                        "is not embedded in another message — it would "
                        "be silently dropped on delivery",
                        name,
                    )
                )
        return findings

    def _check_registry_order(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        if not self._golden:
            return findings
        relative = relative_to_repro(source.path)
        if not relative.endswith("net/codec.py"):
            return findings
        for stmt in source.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            for entries in self._iter_registries_of(stmt):
                prefix = tuple(entries[: len(self._golden)])
                if prefix != self._golden:
                    divergence = next(
                        (
                            i
                            for i, (have, want) in enumerate(
                                zip(prefix, self._golden)
                            )
                            if have != want
                        ),
                        len(prefix),
                    )
                    findings.append(
                        self._finding(
                            source,
                            stmt,
                            "QP001",
                            "WIRE_TYPES diverges from the golden "
                            f"append-only order at position {divergence} "
                            f"(expected `{self._golden[divergence] if divergence < len(self._golden) else '<end>'}`) "
                            "— codes are positional; never insert, "
                            "remove, or reorder, only append",
                            "WIRE_TYPES",
                        )
                    )
        return findings

    def _iter_registries_of(self, stmt: ast.stmt) -> Iterator[List[str]]:
        module = ast.Module(body=[stmt], type_ignores=[])
        yield from self._iter_registries(module)

    def _check_quorum_arithmetic(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        if relative_to_repro(source.path).endswith(_QUORUM_MODULES):
            return findings
        symbol_of: Dict[int, str] = {}
        for func, owner in walk_functions(source.tree):
            name = getattr(func, "name", "<lambda>")
            symbol = f"{owner}.{name}" if owner else name
            for child in ast.walk(func):
                symbol_of.setdefault(id(child), symbol)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or dotted.rsplit(".", 1)[-1] != "QuorumConfig":
                continue
            if any(
                size is not None and _has_arithmetic(size)
                for size in self._quorum_args(node)
            ):
                findings.append(
                    self._finding(
                        source,
                        node,
                        "QP002",
                        "quorum size computed outside the quorum system: "
                        "use QuorumConfig.from_write or a QuorumSystem "
                        "method (repro.sds.quorum) instead of re-deriving "
                        "R + W > N here",
                        symbol_of.get(id(node), ""),
                    )
                )
        return findings

    @staticmethod
    def _quorum_args(
        node: ast.Call,
    ) -> Tuple[Optional[ast.expr], Optional[ast.expr]]:
        read: Optional[ast.expr] = None
        write: Optional[ast.expr] = None
        if len(node.args) >= 1:
            read = node.args[0]
        if len(node.args) >= 2:
            write = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "read":
                read = keyword.value
            elif keyword.arg == "write":
                write = keyword.value
        return read, write

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _finding(
        source: SourceFile,
        node: ast.AST,
        rule: str,
        message: str,
        symbol: str,
    ) -> Finding:
        return Finding(
            path=str(source.path),
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
            severity=Severity.ERROR,
            symbol=symbol,
        )


__all__ = ["ProtocolLinter", "WIRE_REGISTRY_GOLDEN"]
