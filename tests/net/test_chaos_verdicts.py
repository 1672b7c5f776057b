"""The chaos harness's kill schedule and verdict logic, unit-tested
without a cluster."""

from __future__ import annotations

import random

from repro.common.types import NodeId, OpType
from repro.net.chaos import (
    DOWNTIME,
    KILL_DELAY,
    READBACK,
    ChaosReport,
    _ReadbackSource,
    build_schedule,
    count_lost_acked_writes,
    replica_recoveries,
)
from repro.net.cluster import RestartRecord
from repro.net.loadgen import (
    LoadgenResult,
    PhaseResult,
    ShardOutcome,
    metric_value,
)
from repro.net.spec import build_spec
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

    def test_overlapping_acked_writes_either_may_be_last(self) -> None:
        # W2 runs inside W1's interval, so W1 may linearize before it:
        # reading W2 back is legal although W1 was acknowledged later.
        history = [
            write("o", b"w1", 5.0, invoked_at=0.0),
            write("o", b"w2", 3.0, invoked_at=1.0),
        ]
        for value in (b"w1", b"w2"):
            lost, details = count_lost_acked_writes(
                history, [read("o", value)]
            )
            assert (lost, details) == (0, [])


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
            shard_outcomes=[ShardOutcome("shard-0", 300, True)],
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

    def test_unrecovered_cycle_reports_its_problem(self) -> None:
        stuck = RestartRecord(
            victim="storage-1",
            restart_attempts=3,
            problem="storage-1: did not come back healthy after 3 "
            "restart attempts",
        )
        result = self.make_result(cycles_planned=1, cycles=[stuck])
        assert result.problems() == [stuck.problem]
        assert "NEVER RECOVERED" in result.render()

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


def spec():
    return build_spec(replicas=5, proxies=1, write_quorum=4, seed=7)


class TestSchedules:
    def test_deterministic_given_seed(self) -> None:
        assert build_schedule(spec(), seed=3, cycles=6) == build_schedule(
            spec(), seed=3, cycles=6
        )

    def test_different_seeds_differ(self) -> None:
        schedules = {
            tuple(build_schedule(spec(), seed=s, cycles=6)) for s in range(8)
        }
        assert len(schedules) > 1

    def test_victims_are_storage_replicas_with_bounded_timing(self) -> None:
        replicas = {address.name for address in spec().replicas}
        for cycle in build_schedule(spec(), seed=5, cycles=20):
            assert cycle.victim in replicas
            assert KILL_DELAY[0] <= cycle.delay <= KILL_DELAY[1]
            assert DOWNTIME[0] <= cycle.downtime <= DOWNTIME[1]

    def test_no_back_to_back_victim(self) -> None:
        for seed in range(10):
            schedule = build_schedule(spec(), seed=seed, cycles=12)
            for previous, current in zip(schedule, schedule[1:]):
                assert previous.victim != current.victim
