"""Concurrency linters (rules QC001-QC005).

Q-OPT's proxies, replicas, and reconfiguration managers are cooperative
coroutines: simulator processes (generators yielding waitables) and the
live asyncio runtime.  Between two suspension points a handler runs
atomically; *across* one, any other handler may run and mutate shared
state.  These rules flag the three interleaving bug classes that quorum
pipelining and non-blocking reconfiguration actually produce:

QC001  check-then-act-across-suspension
    A guard reads shared state (``self.attr`` or a module global), the
    coroutine suspends, and the guarded write happens after resumption.
    The classic TOCTOU: two handlers both pass the check, both act.
    Re-validate after the suspension point.  The monotonic-update idiom
    ``self.x = max(self.x, v)`` is exempt — it re-establishes its
    invariant regardless of the guard.

QC002  shared-iteration-across-suspension
    ``for item in self.container`` (or ``.items()/.keys()/.values()``)
    with a suspension point inside the loop body.  Another handler may
    mutate the container mid-iteration; snapshot with ``list(...)``.

QC003  stale-captured-protocol-value
    Two forms of the bug class that epoch fencing exists to prevent:
    (a) a local captured from epoch/cfg/plan/ring state on ``self`` is
    used after a suspension point without re-reading it; (b) an
    epoch/cfg guard is checked, the coroutine suspends, and a reply is
    sent without re-validating — the fencing decision is stale by the
    time it is acted on (paper Sec. 5.3: replicas must not serve
    operations from superseded epochs).

QC004  stale-captured-lease-value
    The lease analogue of QC003 form (a): a local captured from lease
    state on ``self`` (grant tables, held leases, expiry deadlines) is
    used after a suspension point without re-reading it.  Leases are
    invalidated *between* handler steps — by a foreign write, an epoch
    change, or plain expiry — so a grant or expiry captured before a
    suspension says nothing about validity after it (invariant I7:
    the primary must re-validate the grant after every wait).

QC005  uncancelled-deadline
    ``any_of(sim, [future, sim.sleep(t)])`` (or ``.timeout(t)``) in a
    protocol coroutine: when the future wins, nothing cancels the timer,
    so its callback chain pins whatever the finished wait produced until
    ``t`` elapses — on the live kernel a node's memory then grows as
    rate x deadline instead of with the work in flight.  Use
    ``wait_for(sim, future, t)``, which owns the timer and cancels the
    loser.

Suspension points are ``await`` expressions and — in classified
*protocol coroutines* (see :func:`repro.qlint.astutils.classify_coroutines`)
— every ``yield`` / ``yield from``.
"""

from __future__ import annotations

import ast
from typing import Callable, Optional

from repro.qlint.astutils import (
    CFG,
    SourceFile,
    classify_coroutines,
    contains_suspension,
    dotted_name,
    own_expressions,
    walk_functions,
    walk_own,
)
from repro.qlint.findings import Finding, Severity

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "put_nowait",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Identifier tokens that mark protocol-configuration state (QC003).
#: Deliberately narrow: ``epoch``/``cfg``/``plan``/``ring`` are the
#: fenced quantities in Q-OPT; ``config`` (tuning knobs) is not.
#: ``recovering``/``quarantined`` joined with the I6 rejoin protocol: a
#: recovery coroutine that captures the quarantine flag (or a sync-reply
#: tally) across a suspension can mis-admit a replica to read quorums,
#: exactly the stale-capture shape QC003 exists to catch.
_PROTOCOL_TOKENS = frozenset(
    {"epoch", "cfg", "plan", "ring", "recovering", "quarantined"}
)

#: QC003 form (b) only tracks the fenced counters themselves.
_FENCE_TOKENS = frozenset({"epoch", "cfg"})

#: Identifier tokens that mark per-object lease state (QC004).  A grant
#: table, a held lease, or an expiry deadline captured before a
#: suspension is stale after it: writes and epoch changes revoke leases
#: between handler steps.
_LEASE_TOKENS = frozenset({"lease", "leases", "expiry", "grant", "grants"})

# Dataflow lattice values (join = max).
_ABSENT, _GUARDED, _STALE = 0, 1, 2
_FRESH = 1  # alias for the QC003 capture lattice


def _tokens(identifier: str) -> frozenset[str]:
    return frozenset(part for part in identifier.split("_") if part)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` attribute access -> key ``"self.X"``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _shared_base(node: ast.AST, module_globals: frozenset[str]) -> Optional[str]:
    """Resolve a write target / receiver down to its shared base key.

    ``self.X``, ``self.X[k]``, ``self.X[k][j]`` -> ``self.X``; a bare
    name that is a module global -> that name; anything else -> None.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    key = _self_attr(node)
    if key is not None:
        return key
    if isinstance(node, ast.Name) and node.id in module_globals:
        return node.id
    return None


def _rooted_in_self(node: ast.AST) -> bool:
    """Does this attribute/call/subscript chain bottom out at ``self``?"""
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    return isinstance(node, ast.Name) and node.id == "self"


def _is_monotonic_update(stmt: ast.stmt, key: str) -> bool:
    """``self.x = max(self.x, ...)`` / ``min`` — safe regardless of guards."""
    if not isinstance(stmt, ast.Assign):
        return False
    value = stmt.value
    if not (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in {"max", "min"}
    ):
        return False
    return any(_self_attr(arg) == key for arg in value.args)


def _module_globals(tree: ast.Module) -> frozenset[str]:
    names: set[str] = set()
    for stmt in tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return frozenset(names)


class _NodeFacts:
    """Per-CFG-node event summary, in intra-statement evaluation order:
    guard reads / loads / sends happen before the suspension, writes and
    assignments take effect after it."""

    def __init__(self) -> None:
        self.suspends = False
        self.guard_reads: set[str] = set()
        self.writes: list[tuple[str, ast.AST, bool]] = []  # (key, node, exempt)
        self.fence_loads: set[str] = set()
        self.fence_guards: set[str] = set()
        self.sends: list[ast.AST] = []
        self.capture_assigns: list[tuple[str, ast.AST]] = []  # (name, node)
        self.lease_capture_assigns: list[tuple[str, ast.AST]] = []
        self.kills: set[str] = set()
        self.uses: list[tuple[str, ast.AST]] = []  # (name, node)


#: Emit callback shared by the three dataflow passes:
#: (source, symbol, in_state, facts, findings, reported) -> None.
_EmitFn = Callable[
    [SourceFile, str, "dict[str, int]", _NodeFacts, "list[Finding]", "set[str]"],
    None,
]


class ConcurrencyLinter:
    """CFG-based interleaving checks for one file (QC001-QC005)."""

    rules = ("QC001", "QC002", "QC003", "QC004", "QC005")

    def run(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        module_globals = _module_globals(source.tree)
        coroutines = classify_coroutines(source.tree)
        for func, owner in walk_functions(source.tree):
            if func not in coroutines:
                continue
            name = getattr(func, "name", "<lambda>")
            symbol = f"{owner}.{name}" if owner else name
            findings.extend(
                self._check_function(source, func, symbol, module_globals)
            )
        return [
            finding
            for finding in findings
            if not source.suppressed(finding.line, finding.rule)
        ]

    # -- per-function analysis ---------------------------------------------

    def _check_function(
        self,
        source: SourceFile,
        func: ast.AST,
        symbol: str,
        module_globals: frozenset[str],
    ) -> list[Finding]:
        include_yields = not isinstance(func, ast.AsyncFunctionDef)
        cfg = CFG.build(func)
        if not cfg.stmts:
            return []
        facts = [
            self._node_facts(stmt, include_yields, module_globals)
            for stmt in cfg.stmts
        ]
        preds: list[list[int]] = [[] for _ in cfg.stmts]
        for index, succs in enumerate(cfg.succ):
            for succ in succs:
                preds[succ].append(index)

        findings: list[Finding] = []
        findings.extend(
            self._iteration_check(source, symbol, cfg, include_yields)
        )
        findings.extend(self._deadline_check(source, symbol, cfg))
        findings.extend(
            self._dataflow(
                source,
                symbol,
                cfg,
                facts,
                preds,
                self._guard_transfer,
                self._guard_emit,
            )
        )
        findings.extend(
            self._dataflow(
                source,
                symbol,
                cfg,
                facts,
                preds,
                self._capture_transfer,
                self._capture_emit,
            )
        )
        findings.extend(
            self._dataflow(
                source,
                symbol,
                cfg,
                facts,
                preds,
                self._lease_transfer,
                self._lease_emit,
            )
        )
        self._ever_guarded = frozenset(
            key for node_facts in facts for key in node_facts.fence_guards
        )
        findings.extend(
            self._dataflow(
                source,
                symbol,
                cfg,
                facts,
                preds,
                self._fence_transfer,
                self._fence_emit,
            )
        )
        return findings

    def _node_facts(
        self,
        stmt: ast.stmt,
        include_yields: bool,
        module_globals: frozenset[str],
    ) -> _NodeFacts:
        facts = _NodeFacts()
        exprs = own_expressions(stmt)
        facts.suspends = any(
            contains_suspension(expr, include_yields) for expr in exprs
        )

        # Guard reads: the tests of branch/loop headers, asserts, and
        # conditional expressions evaluated by this node.
        guard_exprs: list[ast.AST] = []
        if isinstance(stmt, (ast.If, ast.While)):
            guard_exprs.append(stmt.test)
        elif isinstance(stmt, ast.Assert):
            guard_exprs.append(stmt.test)
        for expr in exprs:
            for child in walk_own(expr):
                if isinstance(child, ast.IfExp):
                    guard_exprs.append(child.test)
        for guard in guard_exprs:
            for child in walk_own(guard):
                key = _self_attr(child)
                if key is None and (
                    isinstance(child, ast.Name)
                    and isinstance(child.ctx, ast.Load)
                    and child.id in module_globals
                ):
                    key = child.id
                if key is not None:
                    facts.guard_reads.add(key)
                    if isinstance(child, ast.Attribute) and (
                        _tokens(child.attr) & _FENCE_TOKENS
                    ):
                        facts.fence_guards.add(key)

        # Writes: assignment / deletion / in-place mutation of shared state.
        self._collect_writes(stmt, facts, module_globals)

        # Fence loads, sends, captures, and uses from the node's own exprs.
        tracked_parent: dict[int, ast.AST] = {}
        for expr in exprs:
            for child in walk_own(expr):
                for grandchild in ast.iter_child_nodes(child):
                    tracked_parent[id(grandchild)] = child
                if isinstance(child, ast.Attribute) and isinstance(
                    child.ctx, ast.Load
                ):
                    key = _self_attr(child)
                    if key is not None and (
                        _tokens(child.attr) & _FENCE_TOKENS
                    ):
                        facts.fence_loads.add(key)
                if isinstance(child, ast.Call):
                    if dotted_name(child.func) == "self.send":
                        facts.sends.append(child)
                if (
                    isinstance(child, ast.Name)
                    and isinstance(child.ctx, ast.Load)
                    and not self._is_key_position(child, tracked_parent, stmt)
                ):
                    facts.uses.append((child.id, child))

        # Captures and kills.
        self._collect_bindings(stmt, facts)
        return facts

    @staticmethod
    def _is_key_position(
        node: ast.AST, parents: dict[int, ast.AST], stmt: ast.stmt
    ) -> bool:
        """Is this name only used as a subscript key / delete target?

        ``del self.acks[epoch_no]`` and ``self.acks[epoch_no]`` key usage
        is the dominant *intentional* snapshot idiom — keying a table by
        the value a round started with — and is not reported.
        """
        if isinstance(stmt, ast.Delete):
            return True
        parent = parents.get(id(node))
        if isinstance(parent, ast.Subscript) and parent.slice is node:
            return True
        return False

    def _collect_writes(
        self,
        stmt: ast.stmt,
        facts: _NodeFacts,
        module_globals: frozenset[str],
    ) -> None:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        flattened: list[ast.expr] = []
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            else:
                flattened.append(target)
        for target in flattened:
            key = _shared_base(target, module_globals)
            if key is None:
                continue
            exempt = _is_monotonic_update(stmt, key)
            facts.writes.append((key, target, exempt))
        # In-place mutation through a method call.
        for expr in own_expressions(stmt):
            for child in walk_own(expr):
                if not (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in _MUTATORS
                ):
                    continue
                key = _shared_base(child.func.value, module_globals)
                if key is not None:
                    facts.writes.append((key, child, False))

    def _collect_bindings(self, stmt: ast.stmt, facts: _NodeFacts) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                # A name can capture protocol state, lease state, both
                # (e.g. an epoch-stamped grant), or neither.  Each
                # capture pass re-kills names claimed only by the other
                # kind, so the classification here just records both.
                protocol = self._captures_protocol_value(stmt.value)
                lease = self._captures_lease_value(stmt.value)
                if protocol:
                    facts.capture_assigns.append((target.id, target))
                if lease:
                    facts.lease_capture_assigns.append((target.id, target))
                if not (protocol or lease):
                    facts.kills.add(target.id)
                return
        # Every other binding of a plain name kills tracking for it.
        for expr in own_expressions(stmt):
            for child in walk_own(expr):
                if isinstance(child, ast.Name) and isinstance(
                    child.ctx, ast.Store
                ):
                    facts.kills.add(child.id)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            for child in ast.walk(stmt.target):
                if isinstance(child, ast.Name):
                    facts.kills.add(child.id)

    @staticmethod
    def _captures_protocol_value(value: ast.expr) -> bool:
        for child in walk_own(value):
            if (
                isinstance(child, ast.Attribute)
                and (_tokens(child.attr) & _PROTOCOL_TOKENS)
                and _rooted_in_self(child)
            ):
                return True
        return False

    @staticmethod
    def _captures_lease_value(value: ast.expr) -> bool:
        for child in walk_own(value):
            if (
                isinstance(child, ast.Attribute)
                and (_tokens(child.attr) & _LEASE_TOKENS)
                and _rooted_in_self(child)
            ):
                return True
        return False

    # -- QC002 --------------------------------------------------------------

    def _iteration_check(
        self,
        source: SourceFile,
        symbol: str,
        cfg: CFG,
        include_yields: bool,
    ) -> list[Finding]:
        findings: list[Finding] = []
        for stmt in cfg.stmts:
            if not isinstance(stmt, (ast.For, ast.AsyncFor)):
                continue
            target = self._shared_iterable(stmt.iter)
            if target is None:
                continue
            body_suspends = any(
                contains_suspension(child, include_yields)
                for body_stmt in stmt.body
                for child in walk_own(body_stmt)
            )
            if not body_suspends:
                continue
            findings.append(
                self._finding(
                    source,
                    stmt.iter,
                    "QC002",
                    f"iterating shared container `{target}` with a "
                    "suspension point in the loop body — another handler "
                    "can mutate it mid-iteration; snapshot with "
                    "`list(...)` before the loop",
                    symbol,
                )
            )
        return findings

    # -- QC005 --------------------------------------------------------------

    def _deadline_check(
        self, source: SourceFile, symbol: str, cfg: CFG
    ) -> list[Finding]:
        findings: list[Finding] = []
        for stmt in cfg.stmts:
            for expr in own_expressions(stmt):
                for call in walk_own(expr):
                    if not isinstance(call, ast.Call):
                        continue
                    name = dotted_name(call.func) or ""
                    if name.rpartition(".")[2] != "any_of":
                        continue
                    timer = self._inline_timer(call)
                    if timer is None:
                        continue
                    findings.append(
                        self._finding(
                            source,
                            timer,
                            "QC005",
                            f"`.{timer.attr}(...)` armed inside "
                            "`any_of([...])` is never cancelled when the "
                            "other future wins — it pins the finished "
                            "wait's result until it fires; use "
                            "`wait_for(sim, future, timeout)`",
                            symbol,
                        )
                    )
        return findings

    @staticmethod
    def _inline_timer(any_of_call: ast.Call) -> Optional[ast.Attribute]:
        """The callee of the first ``*.sleep(...)``/``*.timeout(...)``
        call written directly in the list passed to ``any_of``, if any."""
        for arg in any_of_call.args:
            if not isinstance(arg, (ast.List, ast.Tuple)):
                continue
            for element in arg.elts:
                if (
                    isinstance(element, ast.Call)
                    and isinstance(element.func, ast.Attribute)
                    and element.func.attr in {"sleep", "timeout"}
                ):
                    return element.func
        return None

    @staticmethod
    def _shared_iterable(node: ast.expr) -> Optional[str]:
        key = _self_attr(node)
        if key is not None:
            return key
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"items", "keys", "values"}
        ):
            inner = _self_attr(node.func.value)
            if inner is not None:
                return f"{inner}.{node.func.attr}()"
        return None

    # -- generic worklist dataflow ------------------------------------------

    def _dataflow(
        self,
        source: SourceFile,
        symbol: str,
        cfg: CFG,
        facts: list[_NodeFacts],
        preds: list[list[int]],
        transfer: "Callable[[dict[str, int], _NodeFacts], dict[str, int]]",
        emit: "_EmitFn",
    ) -> list[Finding]:
        out_states: list[dict[str, int]] = [{} for _ in cfg.stmts]
        changed = True
        while changed:
            changed = False
            for index in range(len(cfg.stmts)):
                in_state = self._join(
                    [out_states[p] for p in preds[index]]
                )
                new_out = transfer(dict(in_state), facts[index])
                if new_out != out_states[index]:
                    out_states[index] = new_out
                    changed = True
        findings: list[Finding] = []
        reported: set[str] = set()
        for index in range(len(cfg.stmts)):
            in_state = self._join([out_states[p] for p in preds[index]])
            emit(
                source,
                symbol,
                in_state,
                facts[index],
                findings,
                reported,
            )
        return findings

    @staticmethod
    def _join(states: list[dict[str, int]]) -> dict[str, int]:
        joined: dict[str, int] = {}
        for state in states:
            for key, value in state.items():
                if value > joined.get(key, _ABSENT):
                    joined[key] = value
        return joined

    # -- QC001: guard-then-act ----------------------------------------------

    @staticmethod
    def _guard_transfer(
        state: dict[str, int], facts: _NodeFacts
    ) -> dict[str, int]:
        for key in facts.guard_reads:
            state[key] = _GUARDED
        if facts.suspends:
            for key, value in list(state.items()):
                if value == _GUARDED:
                    state[key] = _STALE
        for key, _node, _exempt in facts.writes:
            if state.get(key) == _STALE:
                state[key] = _ABSENT  # reported once; stop the cascade
        return {k: v for k, v in state.items() if v != _ABSENT}

    def _guard_emit(
        self,
        source: SourceFile,
        symbol: str,
        in_state: dict[str, int],
        facts: _NodeFacts,
        findings: list[Finding],
        reported: set[str],
    ) -> None:
        state = dict(in_state)
        for key in facts.guard_reads:
            state[key] = _GUARDED
        if facts.suspends:
            for key, value in list(state.items()):
                if value == _GUARDED:
                    state[key] = _STALE
        for key, node, exempt in facts.writes:
            if state.get(key) == _STALE and not exempt:
                if key not in reported:
                    reported.add(key)
                    findings.append(
                        self._finding(
                            source,
                            node,
                            "QC001",
                            f"`{key}` was checked before a suspension "
                            "point but is written here after it — the "
                            "guard may be stale (check-then-act race); "
                            "re-validate after resuming",
                            symbol,
                        )
                    )
                state[key] = _ABSENT

    # -- QC003 form (a): captured protocol value -----------------------------

    @staticmethod
    def _capture_transfer(
        state: dict[str, int], facts: _NodeFacts
    ) -> dict[str, int]:
        if facts.suspends:
            for key, value in list(state.items()):
                if value == _FRESH:
                    state[key] = _STALE
        for name in facts.kills:
            state.pop(name, None)
        # A re-bind to a lease-only value stops protocol tracking.
        for name, _node in facts.lease_capture_assigns:
            state.pop(name, None)
        for name, _node in facts.capture_assigns:
            state[name] = _FRESH
        return {k: v for k, v in state.items() if v != _ABSENT}

    def _capture_emit(
        self,
        source: SourceFile,
        symbol: str,
        in_state: dict[str, int],
        facts: _NodeFacts,
        findings: list[Finding],
        reported: set[str],
    ) -> None:
        for name, node in facts.uses:
            if in_state.get(name) == _STALE and name not in reported:
                reported.add(name)
                findings.append(
                    self._finding(
                        source,
                        node,
                        "QC003",
                        f"`{name}` captured epoch/cfg/plan/ring state "
                        "before a suspension point and is used here "
                        "after it — re-read or revalidate the "
                        "configuration after resuming",
                        symbol,
                    )
                )

    # -- QC004: captured lease value ------------------------------------------

    @staticmethod
    def _lease_transfer(
        state: dict[str, int], facts: _NodeFacts
    ) -> dict[str, int]:
        if facts.suspends:
            for key, value in list(state.items()):
                if value == _FRESH:
                    state[key] = _STALE
        for name in facts.kills:
            state.pop(name, None)
        # A re-bind to a protocol-only value stops lease tracking.
        for name, _node in facts.capture_assigns:
            state.pop(name, None)
        for name, _node in facts.lease_capture_assigns:
            state[name] = _FRESH
        return {k: v for k, v in state.items() if v != _ABSENT}

    def _lease_emit(
        self,
        source: SourceFile,
        symbol: str,
        in_state: dict[str, int],
        facts: _NodeFacts,
        findings: list[Finding],
        reported: set[str],
    ) -> None:
        for name, node in facts.uses:
            if in_state.get(name) == _STALE and name not in reported:
                reported.add(name)
                findings.append(
                    self._finding(
                        source,
                        node,
                        "QC004",
                        f"`{name}` captured lease/grant/expiry state "
                        "before a suspension point and is used here "
                        "after it — a write, epoch change, or expiry "
                        "may have revoked the lease while suspended; "
                        "re-read the lease table after resuming",
                        symbol,
                    )
                )

    # -- QC003 form (b): stale fencing decision ------------------------------

    @staticmethod
    def _fence_transfer(
        state: dict[str, int], facts: _NodeFacts
    ) -> dict[str, int]:
        for key in facts.fence_loads | facts.fence_guards:
            state[key] = _FRESH
        for key, _node, _exempt in facts.writes:
            if key in state:
                state[key] = _FRESH
        if facts.suspends:
            for key, value in list(state.items()):
                if value == _FRESH:
                    state[key] = _STALE
        return dict(state)

    def _fence_emit(
        self,
        source: SourceFile,
        symbol: str,
        in_state: dict[str, int],
        facts: _NodeFacts,
        findings: list[Finding],
        reported: set[str],
    ) -> None:
        if not facts.sends:
            return
        state = dict(in_state)
        for key in facts.fence_loads | facts.fence_guards:
            state[key] = _FRESH
        stale = sorted(
            key
            for key, value in state.items()
            if value == _STALE and key in self._ever_guarded
        )
        for key in stale:
            if key in reported:
                continue
            reported.add(key)
            findings.append(
                self._finding(
                    source,
                    facts.sends[0],
                    "QC003",
                    f"reply sent after a suspension point but the "
                    f"epoch/cfg fence `{key}` was last checked before "
                    "it — a newer epoch may have been adopted while "
                    "suspended; re-validate before replying",
                    symbol,
                )
            )

    # The fence rule only fires in functions that actually *guard* on an
    # epoch/cfg attribute; plain loads (message construction) never arm it.
    _ever_guarded: frozenset[str] = frozenset()

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


__all__ = ["ConcurrencyLinter"]
