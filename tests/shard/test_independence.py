"""Cross-shard independence: a fault confined to shard A never breaks B.

The scale-out design's core claim is that shards are failure domains:
shard A can lose replicas to a partition — stalling or failing its own
quorums — while shard B's operations neither block nor reorder.  The
test runs the same seeded fleet twice, once fault-free and once with a
nemesis partition pinned to shard A's replicas, and compares shard B
across the runs.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.sds.client import OperationRecord
from repro.sds.consistency import HistoryChecker
from repro.shard.sim import ShardedSimCluster
from repro.sim.nemesis import Nemesis

from tests.determinism.test_timer_cancellation import run_pin
from tests.shard.test_sim_cluster import fleet_config, roaming_workload

SEED = 11
FAULT_AT = 3.0
FAULT_SECONDS = 2.0
RUN_SECONDS = 9.0


@lru_cache(maxsize=None)
def run_fleet(with_fault: bool):
    """One seeded 2-shard run; returns (cluster, records, nemesis)."""
    cluster = ShardedSimCluster(
        shards=2, config=fleet_config(), seed=SEED
    )
    records: list[OperationRecord] = []
    # pipeline_depth > 1 so one blocked shard-A slot cannot head-of-line
    # block a client's shard-B traffic.
    cluster.add_clients(
        roaming_workload(seed=SEED + 1),
        clients=8,
        recorder=records.append,
        pipeline_depth=2,
    )
    nemesis = Nemesis.for_cluster(cluster, seed=SEED)
    if with_fault:
        # Cut off half of shard A's replica pool.  With degree 5 over 6
        # nodes, any object whose placement includes all three isolated
        # replicas cannot reach R=W=3 until the heal.
        victims = [
            node.node_id
            for node in cluster.shard_named("shard-0").storage_nodes[:3]
        ]
        nemesis.schedule_isolation(FAULT_AT, FAULT_SECONDS, victims)
    cluster.run(RUN_SECONDS)
    return cluster, records, nemesis


def completed(records) -> list:
    return [r for r in records if not math.isinf(r.completed_at)]


def latencies(records) -> list:
    return [r.completed_at - r.invoked_at for r in completed(records)]


class TestCrossShardIndependence:
    def setup_method(self) -> None:
        self.baseline_cluster, self.baseline, _ = run_fleet(False)
        self.fault_cluster, self.faulted, self.nemesis = run_fleet(True)

    def test_fault_actually_bites_shard_a(self) -> None:
        """Guard against vacuity: the partition must fire and must stall
        real shard-A operations."""
        kinds = [event.as_tuple()[1] for event in self.nemesis.faults]
        assert "partition" in kinds and "heal" in kinds
        baseline_a = self.baseline_cluster.partition_records(self.baseline)
        faulted_a = self.fault_cluster.partition_records(self.faulted)
        assert max(latencies(faulted_a["shard-0"])) > 1.0
        assert max(latencies(baseline_a["shard-0"])) < 1.0

    def test_shard_b_is_never_blocked_or_reordered(self) -> None:
        groups = self.fault_cluster.partition_records(self.faulted)
        shard_b = groups["shard-1"]
        assert len(completed(shard_b)) > 300
        # Never blocked: every shard-B operation finished at healthy
        # latency, nowhere near the fault window or retry deadlines.
        assert max(latencies(shard_b)) < 1.0
        # Never reordered (and shard A stayed safe too): per-shard
        # histories are consistent and linearizable.
        for name in ("shard-0", "shard-1"):
            checker = HistoryChecker()
            for record in groups[name]:
                checker.record(record)
            checker.assert_consistent()
            checker.assert_linearizable()

    def test_faulted_run_is_byte_identical(self) -> None:
        """Pinned on the commit where the fleet still built its own
        rings; any drift means the shared builder moved event order."""
        assert run_pin(self.fault_cluster, self.faulted) == (
            1003806,
            38051,
            "1c91c72452bf332920adb674fd223681d9030cad2e1ef1da50a7ec91ce049f3d",
        )

    def test_shard_b_throughput_within_tolerance(self) -> None:
        baseline_b = completed(
            self.baseline_cluster.partition_records(self.baseline)["shard-1"]
        )
        faulted_b = completed(
            self.fault_cluster.partition_records(self.faulted)["shard-1"]
        )
        ratio = len(faulted_b) / len(baseline_b)
        assert ratio > 0.70, (
            f"shard-1 throughput collapsed under a shard-0 fault: "
            f"{len(faulted_b)} vs baseline {len(baseline_b)} "
            f"({ratio:.0%})"
        )
