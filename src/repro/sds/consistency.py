"""History-based consistency checking: one atomic-register oracle.

The safety property Q-OPT preserves across reconfigurations is **Dynamic
Quorum Consistency** (Section 5): a read's quorum intersects the write
quorum of any concurrent write and, absent concurrent writes, of the
last completed write.  With the total order on writes, freshest-stamp
read selection and the read write-back this makes every object an
**atomic register**, which is what :class:`HistoryChecker` verifies from
client-observed histories (:class:`~repro.sds.client.OperationRecord`),
with no access to server internals.

:meth:`HistoryChecker.check` is the single verdict.  Per object it
reports:

* ``fabricated-value`` — a read returned a value no recorded write
  wrote (such reads are left out of the search);
* ``non-linearizable`` — the **Wing–Gong search** (Wing & Gong, 1993)
  found no linearization of the history against an atomic register.
  Values are globally unique per write, so the search state collapses
  to (set of linearized operations, last linearized write) and memoized
  reachability is complete.  The history splits at quiescent points
  (every earlier operation has completed) into chunks searched
  separately, with the possible register values threaded across each
  boundary.  A failing chunk is explained by the first operation its
  deepest partial linearization could not place;
* ``write-order-inversion`` — the version-stamp order on writes
  contradicts their real-time order.  The search reads values, not
  stamps, so it cannot see this; the rule stays because it is what
  shows the protocol does not need ``2W > N`` (docs/PROTOCOL.md, I1).

One search budget, :data:`MAX_STATES` explored states per chunk, bounds
the cost; :class:`SearchBudgetExceeded` is raised when a chunk outgrows
it — never a silent pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.types import ObjectId, OpType, VersionStamp
from repro.sds.client import OperationRecord

#: Explored (done-mask, register value) states allowed per chunk.  Sized
#: for pipelined live fleets, whose depth-d clients keep d operations
#: each in flight and so widen every chunk.
MAX_STATES = 2_000_000


@dataclass(frozen=True)
class Violation:
    """One detected consistency violation."""

    kind: str
    object_id: ObjectId
    description: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.object_id}: {self.description}"


class SearchBudgetExceeded(RuntimeError):
    """The state space of one chunk outgrew ``max_states``.

    Distinct from a violation: the history was neither proved nor
    refuted.  Raise the budget or reduce the history length.
    """


def _must_linearize(op: OperationRecord) -> bool:
    """Reads always take effect; a write still pending at the end of the
    history may or may not have."""
    return op.op_type is OpType.READ or op.completed_at != float("inf")


@dataclass
class HistoryChecker:
    """Collects operation records and decides atomic-register semantics.

    The specification: at its linearization point a write installs its
    (globally unique) value and a read returns the value installed by
    the most recently linearized write (the object's ``initial`` value
    before the first write, ``None`` unless given).  Writes that never
    completed (in flight at the end of the run) may linearize or not;
    reads must always linearize.
    """

    records: list[OperationRecord] = field(default_factory=list)
    #: Per-object value before the history starts, for a history taken
    #: against a store that earlier runs wrote to.  Objects not listed
    #: start at ``None``.
    initial: dict[ObjectId, Optional[bytes]] = field(default_factory=dict)

    def record(self, record: OperationRecord) -> None:
        """Recorder callback — pass ``checker.record`` to the clients."""
        self.records.append(record)

    def check(self, max_states: int = MAX_STATES) -> list[Violation]:
        """Every violation in the collected history (empty: atomic).

        Raises :class:`SearchBudgetExceeded` when one chunk's search
        explores more than ``max_states`` states.
        """
        by_object: dict[ObjectId, list[OperationRecord]] = {}
        for record in self.records:
            by_object.setdefault(record.object_id, []).append(record)
        violations: list[Violation] = []
        for object_id, history in by_object.items():
            violations.extend(
                self._check_object(object_id, history, max_states)
            )
        return violations

    # Former name of the search, still called by benchmarks/live/livebench.
    check_linearizable = check

    def assert_consistent(self) -> None:
        """Raise ``AssertionError`` listing any violations."""
        violations = self.check()
        if violations:
            summary = "\n".join(str(v) for v in violations[:10])
            raise AssertionError(
                f"{len(violations)} consistency violations, e.g.:\n{summary}"
            )

    # -- per-object pass ------------------------------------------------------

    def _check_object(
        self,
        object_id: ObjectId,
        history: list[OperationRecord],
        max_states: int,
    ) -> list[Violation]:
        # Clients record every write twice: at invocation (with an
        # infinite completion time) and at completion.  Keep one record
        # per value, preferring the completed one.
        write_by_value: dict[bytes, OperationRecord] = {}
        for record in history:
            if record.op_type is not OpType.WRITE or record.value is None:
                continue
            existing = write_by_value.get(record.value)
            if existing is None or record.completed_at < existing.completed_at:
                write_by_value[record.value] = record

        initial = self.initial.get(object_id)
        violations: list[Violation] = []
        reads: list[OperationRecord] = []
        for record in history:
            if record.op_type is not OpType.READ:
                continue
            if record.value not in write_by_value and record.value != initial:
                violations.append(
                    Violation(
                        kind="fabricated-value",
                        object_id=object_id,
                        description=(
                            f"read at {record.invoked_at:.4f} returned "
                            f"{record.value!r}, written by no recorded write"
                        ),
                    )
                )
            else:
                reads.append(record)

        possible_values: frozenset[Optional[bytes]] = frozenset({initial})
        for chunk in self._chunks([*reads, *write_by_value.values()]):
            final_values, seen = self._search_chunk(
                chunk, possible_values, max_states
            )
            if final_values:
                possible_values = final_values
                continue
            violations.append(
                self._diagnose(object_id, chunk, possible_values, seen)
            )
            # Restart from an unconstrained value so later chunks still
            # get checked instead of cascading failures.
            possible_values = frozenset({initial, *write_by_value})

        # A read of the initial value carries a stamp from before the
        # history, even when a recorded write wrote the same value again.
        violations.extend(
            self._check_write_order(
                object_id,
                [r for r in reads if r.value != initial],
                list(write_by_value.values()),
            )
        )
        return violations

    @staticmethod
    def _chunks(ops: list[OperationRecord]) -> list[list[OperationRecord]]:
        """Split at quiescent points (every earlier op strictly done).

        Each chunk comes out sorted by ``(invoked_at, completed_at)``,
        the order :meth:`_search_chunk` relies on.
        """
        ordered = sorted(
            ops, key=lambda op: (op.invoked_at, op.completed_at)
        )
        chunks: list[list[OperationRecord]] = []
        current: list[OperationRecord] = []
        horizon = float("-inf")
        for op in ordered:
            if current and horizon < op.invoked_at:
                chunks.append(current)
                current = []
            current.append(op)
            horizon = max(horizon, op.completed_at)
        if current:
            chunks.append(current)
        return chunks

    @staticmethod
    def _search_chunk(
        chunk: list[OperationRecord],
        initial_values: frozenset[Optional[bytes]],
        max_states: int,
    ) -> tuple[frozenset[Optional[bytes]], set[tuple[int, Optional[bytes]]]]:
        """Reachability over (done-mask, register value) states.

        Returns the possible register values after the chunk (empty when
        no linearization exists) and the explored states.

        An op may linearize next exactly when no undone op completed
        before it was invoked.  With the chunk in invocation order, the
        candidates start at the lowest undone op and end at the first op
        invoked after the smallest completion time among the undone ops
        before it; every later op is invoked later still.
        """
        n = len(chunk)
        invoked = [op.invoked_at for op in chunk]
        completed = [op.completed_at for op in chunk]
        is_read = [op.op_type is OpType.READ for op in chunk]
        values = [op.value for op in chunk]
        everything = (1 << n) - 1
        required = 0
        for i, op in enumerate(chunk):
            if _must_linearize(op):
                required |= 1 << i

        seen: set[tuple[int, Optional[bytes]]] = {
            (0, value) for value in initial_values
        }
        stack = list(seen)
        final_values: set[Optional[bytes]] = set()
        while stack:
            done, value = stack.pop()
            if done & required == required:
                # Pending writes (completed_at = inf) keep the chunk
                # open to the end of the history, so any state covering
                # ``required`` is a complete linearization of the chunk.
                final_values.add(value)
            undone = everything & ~done
            if not undone:
                continue
            successors = []
            horizon = float("inf")
            for i in range((undone & -undone).bit_length() - 1, n):
                if invoked[i] > horizon:
                    break
                bit = 1 << i
                if done & bit:
                    continue
                if completed[i] < horizon:
                    horizon = completed[i]
                if not is_read[i]:
                    successors.append((done | bit, values[i]))
                elif values[i] == value:
                    # Partial-order reduction: any linearization from
                    # here can be reordered to place this enabled read
                    # first (no undone op must precede it, and a read
                    # moves no register value), so it is the only
                    # successor worth exploring.
                    successors = [(done | bit, value)]
                    break
            for state in successors:
                if state not in seen:
                    if len(seen) >= max_states:
                        raise SearchBudgetExceeded(
                            f"linearizability search exceeded "
                            f"{max_states} states on a chunk of "
                            f"{n} operations"
                        )
                    seen.add(state)
                    stack.append(state)
        return frozenset(final_values), seen

    @staticmethod
    def _diagnose(
        object_id: ObjectId,
        chunk: list[OperationRecord],
        initial_values: frozenset[Optional[bytes]],
        seen: set[tuple[int, Optional[bytes]]],
    ) -> Violation:
        """Name the op the deepest partial linearization could not place."""
        # A max under a total order is the same in any iteration order.
        deepest = max(
            (done for done, _ in seen),  # qlint: ok QD003
            key=lambda done: (bin(done).count("1"), done),
        )
        stuck = next(
            op
            for i, op in enumerate(chunk)
            if not deepest >> i & 1 and _must_linearize(op)
        )
        start = chunk[0].invoked_at
        end = max(
            op.completed_at
            for op in chunk
            if op.completed_at != float("inf")
        )
        reads = sum(1 for op in chunk if op.op_type is OpType.READ)
        return Violation(
            kind="non-linearizable",
            object_id=object_id,
            description=(
                f"no linearization exists for the {len(chunk)} operations "
                f"({reads} reads, {len(chunk) - reads} writes) in "
                f"[{start:.4f}, {end:.4f}] given possible initial "
                f"values {sorted(map(repr, initial_values))}: the deepest "
                f"partial linearization places {bin(deepest).count('1')} "
                f"of them and cannot place the {stuck.op_type.value} invoked at "
                f"{stuck.invoked_at:.4f} with value {stuck.value!r}"
            ),
        )

    @staticmethod
    def _check_write_order(
        object_id: ObjectId,
        reads: list[OperationRecord],
        writes: list[OperationRecord],
    ) -> list[Violation]:
        """The version-stamp total order on writes must extend their
        real-time order.  A write's stamp is only observable through
        the reads that returned its value, so the rule covers every pair
        of non-concurrent writes whose values were both read."""
        stamp_of: dict[bytes, VersionStamp] = {}
        for read in reads:
            if read.value is not None:
                stamp_of.setdefault(read.value, read.stamp)
        stamped = [w for w in writes if w.value in stamp_of]
        violations: list[Violation] = []
        by_invocation = sorted(stamped, key=lambda w: w.invoked_at)
        by_completion = sorted(stamped, key=lambda w: w.completed_at)
        pointer = 0
        best_stamp: Optional[VersionStamp] = None
        for write in by_invocation:
            while (
                pointer < len(by_completion)
                and by_completion[pointer].completed_at < write.invoked_at
            ):
                candidate = stamp_of[by_completion[pointer].value]
                if best_stamp is None or candidate > best_stamp:
                    best_stamp = candidate
                pointer += 1
            if best_stamp is not None and stamp_of[write.value] < best_stamp:
                violations.append(
                    Violation(
                        kind="write-order-inversion",
                        object_id=object_id,
                        description=(
                            f"write invoked at {write.invoked_at:.4f} got "
                            f"stamp {stamp_of[write.value]}, older than "
                            f"stamp {best_stamp} of a write that completed "
                            "before it started — the stamp order "
                            "contradicts real time"
                        ),
                    )
                )
        return violations
