"""The chaos harness's verdict logic, unit-tested without a cluster."""

from __future__ import annotations

import random

from repro.common.types import NodeId, OpType
from repro.net.chaos import (
    READBACK,
    ChaosReport,
    _ReadbackSource,
    count_lost_acked_writes,
    replica_recoveries,
)
from repro.net.loadgen import (
    LoadgenResult,
    PhaseResult,
    ShardOutcome,
    metric_value,
)
from repro.obs.exporters import parse_prometheus_text
from repro.sds.client import OperationRecord

CLIENT = NodeId.client(0)
INF = float("inf")


def write(obj, value, completed_at, invoked_at=None):
    return OperationRecord(
        client=CLIENT,
        object_id=obj,
        op_type=OpType.WRITE,
        invoked_at=invoked_at if invoked_at is not None else completed_at - 0.1,
        completed_at=completed_at,
        value=value,
    )


def read(obj, value, invoked_at=100.0):
    return OperationRecord(
        client=CLIENT,
        object_id=obj,
        op_type=OpType.READ,
        invoked_at=invoked_at,
        completed_at=invoked_at + 0.01,
        value=value,
    )


class TestLostAckedWrites:
    def test_clean_history_has_no_losses(self) -> None:
        history = [write("a", b"a1", 1.0), write("a", b"a2", 2.0)]
        lost, details = count_lost_acked_writes(
            history, [read("a", b"a2"), read("a", b"a2")]
        )
        assert lost == 0 and details == []

    def test_older_acked_value_is_a_loss(self) -> None:
        history = [write("a", b"a1", 1.0), write("a", b"a2", 2.0)]
        lost, details = count_lost_acked_writes(history, [read("a", b"a1")])
        assert lost == 1
        assert "acked at 1.000" in details[0]

    def test_initial_value_after_acked_writes_is_a_loss(self) -> None:
        history = [write("a", b"a1", 1.0)]
        lost, details = count_lost_acked_writes(history, [read("a", b"")])
        assert lost == 1
        assert "initial/unknown" in details[0]

    def test_maybe_applied_write_landing_late_is_legal(self) -> None:
        # The a-late write timed out at the client (completed_at=inf):
        # it may take effect at any point, including after a2's ack.
        history = [
            write("a", b"a-late", INF, invoked_at=0.5),
            write("a", b"a2", 2.0),
        ]
        lost, _details = count_lost_acked_writes(
            history, [read("a", b"a-late")]
        )
        assert lost == 0

    def test_object_without_acked_writes_is_ignored(self) -> None:
        history = [write("a", b"a-late", INF, invoked_at=0.5)]
        lost, _details = count_lost_acked_writes(
            history, [read("a", b""), read("never-written", b"")]
        )
        assert lost == 0

    def test_incomplete_readback_reads_are_skipped(self) -> None:
        history = [write("a", b"a1", 1.0)]
        pending = OperationRecord(
            client=CLIENT,
            object_id="a",
            op_type=OpType.READ,
            invoked_at=100.0,
            completed_at=INF,
            value=None,
        )
        lost, _details = count_lost_acked_writes(history, [pending])
        assert lost == 0

    def test_losses_counted_per_read_observation(self) -> None:
        history = [write("a", b"a1", 1.0), write("a", b"a2", 2.0)]
        lost, _details = count_lost_acked_writes(
            history, [read("a", b"a1"), read("a", b"a1")]
        )
        assert lost == 2


class TestMetricValue:
    SCRAPE = (
        "# HELP qopt_replica_recoveries_total quarantined rejoins\n"
        "# TYPE qopt_replica_recoveries_total gauge\n"
        'qopt_replica_recoveries_total{node="storage-2"} 1.0\n'
        'qopt_wal_fsyncs_total{node="storage-2"} 37.0\n'
    )

    def samples(self, text=SCRAPE):
        return parse_prometheus_text(text)

    def test_finds_family_value(self) -> None:
        assert (
            metric_value(self.samples(), "qopt_replica_recoveries_total")
            == 1.0
        )
        assert metric_value(self.samples(), "qopt_wal_fsyncs_total") == 37.0

    def test_missing_family_is_none(self) -> None:
        assert metric_value(self.samples(), "qopt_nope") is None
        assert metric_value(self.samples(""), "qopt_nope") is None

    def test_recoveries_lookup_picks_the_replicas_own_series(self) -> None:
        # Several labelled series, a prefix-sharing family listed after
        # the real one, and a node name that prefixes another: only the
        # series labelled with the restarted replica's name counts.
        text = (
            'qopt_replica_recoveries_total{node="storage-2",shard="shard-0"}'
            " 1\n"
            'qopt_replica_recoveries_total{node="storage-20",shard="shard-0"}'
            " 0\n"
            'qopt_replica_recoveries_total{node="storage-3",shard="shard-0"}'
            " 4\n"
            'qopt_replica_recoveries_total_seconds{node="storage-2"} 9.5\n'
        )
        scrape = self.samples(text)
        recoveries = replica_recoveries(
            {"storage-2": scrape, "storage-3": scrape, "storage-20": scrape},
            ["storage-3", "storage-2", "storage-20", "storage-4"],
        )
        assert recoveries == {
            "storage-2": 1.0,
            "storage-20": 0.0,
            "storage-3": 4.0,
            "storage-4": None,
        }


def chaos_phase(name: str, failed: int) -> PhaseResult:
    return PhaseResult(
        name=name,
        write_quorum=2,
        duration=1.0,
        operations=100,
        ops_per_sec=100.0,
        failed=failed,
        retries=failed,
        latencies={},
    )


class TestChaosVerdicts:
    def make_result(
        self, load_failed=0, readback_failed=0, **report
    ) -> LoadgenResult:
        defaults = dict(
            cycles_planned=0,
            cycles=[],
            nemesis_problems=[],
            lost_acked_writes=0,
            lost_details=[],
            transport_resets=2,
            restarted={"storage-1": 1},
            recoveries={"storage-1": 1.0},
        )
        defaults.update(report)
        return LoadgenResult(
            phases=[
                chaos_phase("W=4", load_failed),
                chaos_phase("W=2", load_failed),
                chaos_phase(READBACK, readback_failed),
            ],
            reconfig_seconds=0.1,
            shard_outcomes=[ShardOutcome("shard-0", 300, 0, True)],
            checks=ChaosReport(**defaults),
        )

    def chaos_problems(self, **kwargs):
        return self.make_result(**kwargs).problems()

    def test_load_phase_failures_are_tolerated(self) -> None:
        assert self.chaos_problems(load_failed=7) == []

    def test_any_readback_failure_fails(self) -> None:
        assert self.chaos_problems(load_failed=7, readback_failed=1) == [
            f"phase {READBACK}: 1 client operations failed"
        ]

    def test_lost_writes_and_missing_recoveries_fail(self) -> None:
        problems = self.chaos_problems(
            lost_acked_writes=2, recoveries={"storage-1": None}
        )
        assert problems[0] == "2 acknowledged writes lost"
        assert "storage-1: restarted 1x" in problems[1]

    def test_cycles_that_never_ran_fail(self) -> None:
        assert self.chaos_problems(cycles_planned=1) == [
            "only 0 of 1 kill cycles ran"
        ]

    def test_report_fields(self) -> None:
        payload = self.make_result(load_failed=7).as_dict()
        assert payload["ok"] is True
        assert payload["transport_resets"] == 2
        assert payload["recoveries_metric"] == {"storage-1": 1.0}
        assert payload["ops_dip_ratio"] == 1.0
        assert self.make_result().render().startswith("live-chaos:")


class TestReadbackSource:
    def test_cycles_through_every_object(self) -> None:
        objects = ["obj-a", "obj-b", "obj-c"]
        source = _ReadbackSource(objects=list(objects))
        rng = random.Random(0)
        issued = [source.next_operation(rng) for _ in range(7)]
        assert [op.object_id for op in issued] == [
            "obj-a", "obj-b", "obj-c", "obj-a", "obj-b", "obj-c", "obj-a"
        ]
        assert all(op.op_type is OpType.READ for op in issued)
