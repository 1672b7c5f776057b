"""Property tests for the history checker.

Three directions, per the Wing-Gong completeness claim:

* **Soundness on valid histories** — any history generated by executing
  an atomic register sequentially and then inflating each operation's
  interval around its linearization point has a witness linearization,
  so the checker must accept it, for every seed hypothesis explores.
* **Rejection of injected violations** — four families of corrupted
  histories (stale read, lost update, future read, new-then-old reads)
  must each be rejected with a precise ``non-linearizable`` report.
* **Agreement with brute force** — on short histories with injected
  corruptions, the checker accepts exactly when some real-time-respecting
  permutation is a legal atomic-register run.
"""

from __future__ import annotations

import dataclasses
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import OpType, VersionStamp
from repro.sds.client import OperationRecord
from repro.sds.consistency import HistoryChecker, SearchBudgetExceeded

INF = float("inf")


def rec(op_type, invoked_at, completed_at, value, client="c", obj="obj"):
    return OperationRecord(
        client=client,
        object_id=obj,
        op_type=op_type,
        invoked_at=invoked_at,
        completed_at=completed_at,
        value=value,
    )


@st.composite
def sequential_histories(
    draw, min_writes: int = 0, max_ops: int = 12, spread: float = 3.0
):
    """A history with a witness linearization, by construction.

    Operations execute sequentially against a spec register at points
    t = 0, 1, 2, ...; each interval is then inflated left and right by
    bounded amounts, which preserves the witness (each operation still
    contains its linearization point) while creating real concurrency.
    """
    n = draw(st.integers(min_value=max(1, min_writes), max_value=max_ops))
    kinds = draw(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(
            lambda ks: sum(ks) >= min_writes
        )
    )
    inflate = st.floats(
        min_value=0.0, max_value=spread, allow_nan=False, allow_infinity=False
    )
    records = []
    current = None
    write_no = 0
    for point, is_write in enumerate(kinds):
        left = draw(inflate)
        right = draw(inflate)
        if is_write:
            value = b"w%d" % write_no
            write_no += 1
            current = value
            op = OpType.WRITE
        else:
            value = current
            op = OpType.READ
        records.append(
            rec(op, point - left, point + right, value, client=f"c{point}")
        )
    return records


def horizon(records) -> float:
    return max(r.completed_at for r in records if r.completed_at != INF)


class TestAcceptsValidHistories:
    @settings(max_examples=80, deadline=None)
    @given(sequential_histories())
    def test_witnessed_history_accepted(self, records):
        checker = HistoryChecker()
        checker.records = list(records)
        assert checker.check() == []

    @settings(max_examples=40, deadline=None)
    @given(sequential_histories(min_writes=1))
    def test_trailing_pending_write_may_linearize(self, records):
        """A write still in flight at the end may or may not take effect."""
        end = horizon(records)
        checker = HistoryChecker()
        checker.records = list(records) + [
            rec(OpType.WRITE, end + 1.0, INF, b"pending", client="p"),
            rec(OpType.READ, end + 2.0, end + 3.0, b"pending", client="r"),
        ]
        assert checker.check() == []


class TestRejectsInjectedViolations:
    """Acceptance criterion: >= 3 injected violation families rejected."""

    @settings(max_examples=40, deadline=None)
    @given(sequential_histories())
    def test_stale_read_rejected(self, records):
        """A read strictly after write b completes must not return a."""
        end = horizon(records)
        history = list(records) + [
            rec(OpType.WRITE, end + 1.0, end + 2.0, b"old", client="w1"),
            rec(OpType.WRITE, end + 3.0, end + 4.0, b"new", client="w2"),
            rec(OpType.READ, end + 5.0, end + 6.0, b"old", client="r"),
        ]
        checker = HistoryChecker()
        checker.records = history
        violations = checker.check()
        assert violations
        assert all(v.kind == "non-linearizable" for v in violations)
        assert violations[0].object_id == "obj"

    @settings(max_examples=40, deadline=None)
    @given(sequential_histories())
    def test_lost_update_rejected(self, records):
        """A completed write must be visible to strictly later reads."""
        end = horizon(records)
        history = list(records) + [
            rec(OpType.WRITE, end + 1.0, end + 2.0, b"durable", client="w"),
            rec(OpType.READ, end + 3.0, end + 4.0, None, client="r"),
        ]
        checker = HistoryChecker()
        checker.records = history
        violations = checker.check()
        assert violations
        assert violations[0].kind == "non-linearizable"

    @settings(max_examples=40, deadline=None)
    @given(sequential_histories())
    def test_future_read_rejected(self, records):
        """A read cannot return a value written only after it completed."""
        end = horizon(records)
        history = list(records) + [
            rec(OpType.READ, end + 1.0, end + 2.0, b"tomorrow", client="r"),
            rec(OpType.WRITE, end + 3.0, end + 4.0, b"tomorrow", client="w"),
        ]
        checker = HistoryChecker()
        checker.records = history
        assert checker.check()

    @settings(max_examples=40, deadline=None)
    @given(sequential_histories())
    def test_new_then_old_reads_rejected(self, records):
        """Sequential reads must observe writes monotonically."""
        end = horizon(records)
        history = list(records) + [
            rec(OpType.WRITE, end + 1.0, end + 2.0, b"first", client="w1"),
            rec(OpType.WRITE, end + 3.0, end + 4.0, b"second", client="w2"),
            rec(OpType.READ, end + 5.0, end + 6.0, b"second", client="r1"),
            rec(OpType.READ, end + 7.0, end + 8.0, b"first", client="r2"),
        ]
        checker = HistoryChecker()
        checker.records = history
        assert checker.check()


class TestDiagnostics:
    def test_fabricated_value_reported_distinctly(self):
        checker = HistoryChecker()
        checker.records = [rec(OpType.READ, 0.0, 1.0, b"ghost")]
        (violation,) = checker.check()
        assert violation.kind == "fabricated-value"
        assert "ghost" in violation.description

    def test_in_flight_new_then_old_is_regular_but_not_atomic(self):
        """Regular but not atomic: new-then-old across a pending write."""
        checker = HistoryChecker()
        checker.records = [
            rec(OpType.WRITE, 0.0, 0.5, b"a", client="w1"),
            rec(OpType.WRITE, 1.0, INF, b"b", client="w2"),
            rec(OpType.READ, 2.0, 2.5, b"b", client="r1"),
            rec(OpType.READ, 3.0, 3.5, b"a", client="r2"),
        ]
        (violation,) = checker.check()
        assert violation.kind == "non-linearizable"
        assert "read invoked at 3.0000" in violation.description

    def test_report_names_the_chunk_and_window(self):
        checker = HistoryChecker()
        checker.records = [
            rec(OpType.WRITE, 0.0, 1.0, b"a"),
            rec(OpType.READ, 2.0, 3.0, None),
        ]
        (violation,) = checker.check()
        assert "no linearization exists" in violation.description
        assert "1 reads" in violation.description
        assert "read invoked at 2.0000 with value None" in (
            violation.description
        )

    def test_budget_exhaustion_raises_not_passes(self):
        concurrent = [
            rec(OpType.WRITE, 0.0, 10.0, b"w%d" % i, client=f"c{i}")
            for i in range(8)
        ] + [rec(OpType.READ, 0.0, 10.0, b"w0", client="r")]
        checker = HistoryChecker(concurrent)
        try:
            checker.check(max_states=16)
        except SearchBudgetExceeded:
            pass
        else:
            raise AssertionError("tiny budget should have been exceeded")

    def test_objects_checked_independently(self):
        checker = HistoryChecker()
        checker.records = [
            rec(OpType.WRITE, 0.0, 1.0, b"a", obj="good"),
            rec(OpType.READ, 2.0, 3.0, b"a", obj="good"),
            rec(OpType.WRITE, 0.0, 1.0, b"x", obj="bad"),
            rec(OpType.READ, 2.0, 3.0, None, obj="bad"),
        ]
        violations = checker.check()
        assert [v.object_id for v in violations] == ["bad"]


class TestWriteOrderInversion:
    """The stamp rule of HistoryChecker.check(): stamps extend real time."""

    def test_inverted_stamps_detected(self):
        checker = HistoryChecker()
        checker.records = [
            OperationRecord(
                client="w1", object_id="obj", op_type=OpType.WRITE,
                invoked_at=0.0, completed_at=1.0, value=b"a",
            ),
            OperationRecord(
                client="w2", object_id="obj", op_type=OpType.WRITE,
                invoked_at=2.0, completed_at=3.0, value=b"b",
            ),
            OperationRecord(
                client="r1", object_id="obj", op_type=OpType.READ,
                invoked_at=0.2, completed_at=0.8, value=b"a",
                stamp=VersionStamp(5.0, "p0"),
            ),
            OperationRecord(
                client="r2", object_id="obj", op_type=OpType.READ,
                invoked_at=4.0, completed_at=5.0, value=b"b",
                stamp=VersionStamp(2.0, "p0"),
            ),
        ]
        kinds = {v.kind for v in checker.check()}
        assert "write-order-inversion" in kinds

    def test_consistent_stamps_pass(self):
        checker = HistoryChecker()
        checker.records = [
            OperationRecord(
                client="w1", object_id="obj", op_type=OpType.WRITE,
                invoked_at=0.0, completed_at=1.0, value=b"a",
            ),
            OperationRecord(
                client="w2", object_id="obj", op_type=OpType.WRITE,
                invoked_at=2.0, completed_at=3.0, value=b"b",
            ),
            OperationRecord(
                client="r1", object_id="obj", op_type=OpType.READ,
                invoked_at=0.2, completed_at=0.8, value=b"a",
                stamp=VersionStamp(0.1, "p0"),
            ),
            OperationRecord(
                client="r2", object_id="obj", op_type=OpType.READ,
                invoked_at=4.0, completed_at=5.0, value=b"b",
                stamp=VersionStamp(2.5, "p0"),
            ),
        ]
        assert checker.check() == []


def atomic_run_exists(records) -> bool:
    """Brute force: try every permutation, leaving out any pending writes."""
    pending = [
        i
        for i, r in enumerate(records)
        if r.op_type is OpType.WRITE and r.completed_at == INF
    ]
    for size in range(len(pending) + 1):
        for left_out in itertools.combinations(pending, size):
            ops = [r for i, r in enumerate(records) if i not in left_out]
            for order in itertools.permutations(ops):
                if respects_real_time(order) and legal_run(order):
                    return True
    return False


def respects_real_time(order) -> bool:
    return not any(
        later.completed_at < earlier.invoked_at
        for position, earlier in enumerate(order)
        for later in order[position + 1:]
    )


def legal_run(order) -> bool:
    value = None
    for op in order:
        if op.op_type is OpType.WRITE:
            value = op.value
        elif op.value != value:
            return False
    return True


@st.composite
def corrupted_histories(draw):
    """Up to seven ops of a witnessed history, each possibly corrupted:
    a read's value swapped, an interval shifted, or a write left
    pending.  Times snap to a half-unit grid so that one op often
    completes exactly when another is invoked."""
    records = draw(sequential_histories(min_writes=2, max_ops=7, spread=1.0))
    values = [None] + [r.value for r in records if r.op_type is OpType.WRITE]
    corrupted = []
    for r in records:
        r = dataclasses.replace(
            r,
            invoked_at=round(2 * r.invoked_at) / 2,
            completed_at=round(2 * r.completed_at) / 2,
        )
        how = draw(st.sampled_from(["keep", "value", "value", "shift", "pend"]))
        if how == "value" and r.op_type is OpType.READ:
            r = dataclasses.replace(r, value=draw(st.sampled_from(values)))
        elif how == "shift":
            delta = draw(st.sampled_from([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5]))
            r = dataclasses.replace(
                r,
                invoked_at=r.invoked_at + delta,
                completed_at=r.completed_at + delta,
            )
        elif how == "pend" and r.op_type is OpType.WRITE:
            r = dataclasses.replace(r, completed_at=INF)
        corrupted.append(r)
    return corrupted


class TestAgreesWithBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(corrupted_histories())
    def test_accepts_exactly_the_atomic_histories(self, records):
        checker = HistoryChecker(list(records))
        assert (checker.check() == []) == atomic_run_exists(records)
