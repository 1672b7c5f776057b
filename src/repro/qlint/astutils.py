"""Shared AST plumbing for the qlint analyzers.

The analyzers are plain ``ast`` walkers (no third-party dependency).
This module centralizes the pieces they share:

* :class:`SourceFile` — one parsed file with its pragma table;
* ``# qlint: ok RULE`` / ``# qlint: disable=RULE1,RULE2`` suppression
  pragmas, resolved per physical line;
* import resolution (which local names refer to which modules), so that
  ``random.random()`` is distinguished from ``self._rng.random()``;
* dotted-name rendering of call targets.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

_PRAGMA = re.compile(
    r"#\s*qlint:\s*(?:ok|disable=?)\s*([A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*|all)?"
)


def _pragma_lines(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids suppressed on that line.

    The sentinel rule id ``"all"`` suppresses every rule on the line.
    Pragmas are read from real comment tokens (not string literals).
    """
    pragmas: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(token.string)
            if not match:
                continue
            spec = match.group(1) or "all"
            rules = frozenset(
                part.strip() for part in spec.split(",") if part.strip()
            )
            pragmas[token.start[0]] = rules
    except tokenize.TokenError:  # pragma: no cover - broken source
        pass
    return pragmas


@dataclass
class SourceFile:
    """One file under analysis: path, source, AST, pragma table."""

    path: Path
    source: str
    tree: ast.Module
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)

    @staticmethod
    def parse(path: Path) -> "SourceFile":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return SourceFile(
            path=path,
            source=source,
            tree=tree,
            pragmas=_pragma_lines(source),
        )

    def suppressed(self, line: int, rule: str) -> bool:
        rules = self.pragmas.get(line)
        return rules is not None and (rule in rules or "all" in rules)


class ImportMap:
    """Which local names are bound to which modules/objects.

    Tracks both plain module imports (``import random``,
    ``import numpy as np``) and from-imports (``from time import time``),
    mapping the *local* name to the fully qualified origin, e.g.::

        import numpy as np        ->  {"np": "numpy"}
        from random import choice ->  {"choice": "random.choice"}
    """

    def __init__(self, tree: ast.Module) -> None:
        self.modules: dict[str, str] = {}
        self.objects: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else local
                    self.modules[local] = origin
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:  # relative import — not a stdlib module
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.objects[local] = f"{node.module}.{alias.name}"

    def resolve_call(self, func: ast.expr) -> Optional[str]:
        """Fully qualified name of a call target, or None.

        ``random.random`` resolves through a module import;
        ``np.random.default_rng`` through the dotted chain; a bare name
        resolves through from-imports.  Attribute chains rooted at
        anything else (``self._rng.random``) resolve to None — they are
        instance calls, not module-level calls.
        """
        dotted = dotted_name(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if rest:
            module = self.modules.get(head)
            if module is not None:
                return f"{module}.{rest}"
            origin = self.objects.get(head)
            if origin is not None:
                return f"{origin}.{rest}"
            return None
        return self.objects.get(head, None)


def dotted_name(node: ast.expr) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The syntactic (unresolved) dotted name of a call target."""
    return dotted_name(node.func)


def walk_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, Optional[str]]]:
    """Yield ``(function_node, enclosing_class_name)`` pairs."""
    class _Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.found: list[tuple[ast.AST, Optional[str]]] = []
            self._class: list[str] = []

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self._class.append(node.name)
            self.generic_visit(node)
            self._class.pop()

        def _visit_func(self, node: ast.AST) -> None:
            owner = self._class[-1] if self._class else None
            self.found.append((node, owner))
            self.generic_visit(node)

        visit_FunctionDef = _visit_func
        visit_AsyncFunctionDef = _visit_func

    visitor = _Visitor()
    visitor.visit(tree)
    yield from visitor.found


def iter_python_files(paths: list[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def int_literal(node: ast.expr) -> Optional[int]:
    """The value of an integer literal expression, else None."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = int_literal(node.operand)
        return -inner if inner is not None else None
    return None


# ---------------------------------------------------------------------------
# Control-flow graph + suspension points (shared by the QC analyzers)
# ---------------------------------------------------------------------------

#: Function nodes the concurrency analyses walk.
FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Call-name suffixes whose yielded result suspends a protocol coroutine.
#: The simulator's processes are plain generators: they ``yield`` futures
#: and waitables (``sim.sleep(...)``, ``resource.use(...)``,
#: ``gate.wait()``, ``mutex.acquire()``, ``wait_for(...)``) and the kernel
#: resumes them later — exactly an ``await``.  A generator containing at
#: least one such yield is classified as a *protocol coroutine* and every
#: one of its yields is then treated as a suspension point.
WAITABLE_CALL_NAMES = frozenset(
    {
        "sleep",
        "use",
        "wait",
        "wait_drained",
        "acquire",
        "future",
        "any_of",
        "all_of",
        "wait_for",
        "gather",
        "spawn",
    }
)


def walk_own(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` pruned at nested function/lambda scopes.

    Yields ``node`` itself and its descendants, but never descends into a
    nested ``def``/``async def``/``lambda`` body — those run in their own
    frame, on their own schedule, and must be analyzed separately.
    """
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)


def own_expressions(stmt: ast.stmt) -> list[ast.AST]:
    """The expressions a CFG node evaluates *itself*.

    Compound statements contribute only their header expression (an
    ``if``/``while`` test, a ``for`` iterable, a ``with`` context); their
    bodies are separate CFG nodes.  Simple statements contribute the whole
    statement.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, getattr(ast, "AsyncFor", ast.For))):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, getattr(ast, "AsyncWith", ast.With))):
        return [item.context_expr for item in stmt.items]
    if isinstance(
        stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return []
    return [stmt]


def contains_suspension(node: ast.AST, include_yields: bool) -> bool:
    """Does this (own-scope) subtree suspend the enclosing coroutine?"""
    kinds: tuple = (ast.Await,)
    if include_yields:
        kinds = (ast.Await, ast.Yield, ast.YieldFrom)
    return any(isinstance(child, kinds) for child in walk_own(node))


class CFG:
    """Statement-level control-flow graph of one function body.

    ``stmts[i]`` is the i-th statement node; ``succ[i]`` its control-flow
    successors.  Exception edges are over-approximated: every statement
    inside a ``try`` body may jump to each handler (and to ``finally``).
    """

    def __init__(self) -> None:
        self.stmts: list[ast.stmt] = []
        self.succ: list[list[int]] = []
        #: (loop-head index, break-exit list) stack during construction.
        self._loops: list[tuple[int, list[int]]] = []

    # -- construction --------------------------------------------------------

    def _add(self, stmt: ast.stmt) -> int:
        self.stmts.append(stmt)
        self.succ.append([])
        return len(self.stmts) - 1

    def _link(self, sources: list[int], target: int) -> None:
        for source in sources:
            if target not in self.succ[source]:
                self.succ[source].append(target)

    def _sequence(self, body: list[ast.stmt], preds: list[int]) -> list[int]:
        for stmt in body:
            index = self._add(stmt)
            self._link(preds, index)
            preds = self._statement(stmt, index)
        return preds

    def _statement(self, stmt: ast.stmt, index: int) -> list[int]:
        if isinstance(stmt, ast.If):
            body_exits = self._sequence(stmt.body, [index])
            if stmt.orelse:
                else_exits = self._sequence(stmt.orelse, [index])
            else:
                else_exits = [index]
            return body_exits + else_exits
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self._loops.append((index, []))
            body_exits = self._sequence(stmt.body, [index])
            self._link(body_exits, index)
            _head, breaks = self._loops.pop()
            if stmt.orelse:
                exits = self._sequence(stmt.orelse, [index])
            else:
                exits = [index]
            return exits + breaks
        if isinstance(stmt, ast.Try):
            first_body = len(self.stmts)
            body_exits = self._sequence(stmt.body, [index])
            body_nodes = list(range(first_body, len(self.stmts))) or [index]
            handler_exits: list[int] = []
            for handler in stmt.handlers:
                handler_exits.extend(
                    self._sequence(handler.body, list(body_nodes))
                )
            if stmt.orelse:
                body_exits = self._sequence(stmt.orelse, body_exits)
            all_exits = body_exits + handler_exits
            if stmt.finalbody:
                # ``finally`` runs on the normal paths *and* on exception
                # paths that no handler caught.
                return self._sequence(
                    stmt.finalbody, all_exits + list(body_nodes)
                )
            return all_exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._sequence(stmt.body, [index])
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][1].append(index)
            return []
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._link([index], self._loops[-1][0])
            return []
        match_type = getattr(ast, "Match", None)
        if match_type is not None and isinstance(stmt, match_type):
            exits: list[int] = [index]
            for case in stmt.cases:
                exits.extend(self._sequence(case.body, [index]))
            return exits
        return [index]

    @staticmethod
    def build(func: ast.AST) -> "CFG":
        cfg = CFG()
        cfg._sequence(list(getattr(func, "body", [])), [])
        return cfg


def classify_coroutines(tree: ast.Module) -> "set[ast.AST]":
    """The function nodes whose yields/awaits are suspension points.

    * every ``async def`` qualifies;
    * a generator qualifies when it yields a waitable-producing call
      (:data:`WAITABLE_CALL_NAMES`) — the simulator-process idiom;
    * classification propagates through ``yield from self.method(...)``
      and ``yield from function(...)`` delegation chains (fixpoint over
      the same class / same module), so e.g. a read path built from
      nested ``yield from`` layers is fully covered.
    """
    functions = list(walk_functions(tree))
    classified: set[ast.AST] = set()
    #: (class, name) -> node, for delegation resolution.
    by_name: dict[tuple[Optional[str], str], ast.AST] = {}
    #: node -> delegation targets (class-qualified and module-level).
    delegates: dict[ast.AST, list[tuple[Optional[str], str]]] = {}

    for node, owner in functions:
        name = getattr(node, "name", None)
        if name is not None:
            by_name[(owner, name)] = node
        if isinstance(node, ast.AsyncFunctionDef):
            classified.add(node)
            continue
        targets: list[tuple[Optional[str], str]] = []
        for child in walk_own(node):
            value: Optional[ast.expr] = None
            if isinstance(child, ast.Yield):
                value = child.value
            elif isinstance(child, ast.YieldFrom):
                value = child.value
            if value is None:
                continue
            if isinstance(value, ast.Call):
                dotted = dotted_name(value.func)
                final = dotted.rsplit(".", 1)[-1] if dotted else None
                if final in WAITABLE_CALL_NAMES:
                    classified.add(node)
                if dotted is not None and isinstance(child, ast.YieldFrom):
                    parts = dotted.split(".")
                    if len(parts) == 2 and parts[0] == "self":
                        targets.append((owner, parts[1]))
                    elif len(parts) == 1:
                        targets.append((None, parts[0]))
        if targets:
            delegates[node] = targets

    changed = True
    while changed:
        changed = False
        for node, targets in delegates.items():
            if node in classified:
                continue
            for key in targets:
                target = by_name.get(key)
                if target is not None and target in classified:
                    classified.add(node)
                    changed = True
                    break
    return classified


def relative_to_repro(path: Path) -> str:
    """Path relative to the installed ``repro`` package root."""
    root = Path(__file__).resolve().parent.parent
    try:
        relative = path.resolve().relative_to(root)
    except ValueError:
        return str(path).replace("\\", "/")
    return str(relative).replace("\\", "/")
