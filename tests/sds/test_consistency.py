"""Safety: Dynamic Quorum Consistency, checked from client histories.

These tests run the full data plane with concurrent readers/writers and
verify, from client-observed histories only, that every object behaves
as an atomic register:

* under every static strict configuration;
* across global and per-object reconfigurations (the Section 5 claim:
  consistency is preserved *during* the transition);
* with crashed proxies, crashed storage nodes, and false suspicions;
* back-to-back reconfigurations with shrinking/growing quorums — the
  scenario the cfg_no read-repair machinery exists for.

A deliberately broken checker test at the end proves the checker itself
can detect violations (it is not vacuously green).
"""

from __future__ import annotations

import pytest

from repro.common.config import (
    ClusterConfig,
    NetworkConfig,
    StorageConfig,
)
from repro.common.types import OpType, QuorumConfig, VersionStamp
from repro.reconfig.manager import attach_reconfiguration_manager
from repro.sds.client import OperationRecord
from repro.sds.cluster import SwiftCluster
from repro.sds.consistency import HistoryChecker
from repro.workloads.generator import SyntheticWorkload, WorkloadSpec


def chaos_config(read: int, write: int) -> ClusterConfig:
    """Small objects, fast service, no replicator (harder case: only the
    quorum intersection keeps replicas in sync)."""
    return ClusterConfig(
        num_storage_nodes=6,
        num_proxies=3,
        clients_per_proxy=3,
        replication_degree=5,
        initial_quorum=QuorumConfig(read=read, write=write),
        storage=StorageConfig(
            read_service_time=0.0005,
            write_service_time=0.0015,
            replication_interval=0.0,
        ),
        network=NetworkConfig(base_latency=0.0001),
    )


def contended_workload(seed: int = 0) -> SyntheticWorkload:
    """Few objects + many clients = heavy read/write contention."""
    return SyntheticWorkload(
        WorkloadSpec(
            write_ratio=0.5,
            object_size=2048,
            num_objects=4,
            skew=0.0,
            name="contended",
        ),
        seed=seed,
    )


def run_with_checker(cluster: SwiftCluster, duration: float) -> HistoryChecker:
    checker = HistoryChecker()
    cluster.add_clients(contended_workload(), recorder=checker.record)
    cluster.run(duration)
    return checker


class TestStaticConfigurations:
    @pytest.mark.parametrize("write", [1, 2, 3, 4, 5])
    def test_every_minimal_strict_config_is_consistent(self, write):
        config = chaos_config(read=6 - write, write=write)
        cluster = SwiftCluster(config, seed=write)
        checker = run_with_checker(cluster, duration=4.0)
        assert len(checker.records) > 500
        checker.assert_consistent()

    def test_consistent_with_replicator_enabled(self):
        config = ClusterConfig(
            num_storage_nodes=6,
            num_proxies=3,
            clients_per_proxy=3,
            replication_degree=5,
            initial_quorum=QuorumConfig(read=1, write=5),
            storage=StorageConfig(replication_interval=0.2),
        )
        cluster = SwiftCluster(config, seed=9)
        checker = run_with_checker(cluster, duration=4.0)
        checker.assert_consistent()


class TestReconfigurationSafety:
    def test_consistency_across_global_reconfigurations(self):
        cluster = SwiftCluster(chaos_config(3, 3), seed=5)
        rm = attach_reconfiguration_manager(cluster)
        checker = HistoryChecker()
        cluster.add_clients(contended_workload(), recorder=checker.record)
        # Walk through every configuration while clients hammer the store.
        schedule = [(1.0, 1), (2.0, 5), (3.0, 2), (4.0, 4), (5.0, 3)]
        elapsed = 0.0
        for at, write in schedule:
            cluster.run(at - elapsed)
            elapsed = at
            rm.change_global(QuorumConfig.from_write(write, 5))
        cluster.run(3.0)
        assert rm.reconfigurations_completed == len(schedule)
        assert len(checker.records) > 1000
        checker.assert_consistent()

    def test_consistency_across_per_object_reconfigurations(self):
        cluster = SwiftCluster(chaos_config(3, 3), seed=6)
        rm = attach_reconfiguration_manager(cluster)
        checker = HistoryChecker()
        workload = contended_workload()
        cluster.add_clients(workload, recorder=checker.record)
        objects = workload.object_ids()
        cluster.run(1.0)
        rm.change_overrides({objects[0]: QuorumConfig(read=5, write=1)})
        cluster.run(1.0)
        rm.change_overrides({objects[1]: QuorumConfig(read=1, write=5)})
        cluster.run(1.0)
        rm.change_overrides({objects[0]: QuorumConfig(read=2, write=4)})
        cluster.run(2.0)
        checker.assert_consistent()

    def test_consistency_with_proxy_crash_during_reconfiguration(self):
        cluster = SwiftCluster(chaos_config(3, 3), seed=7)
        rm = attach_reconfiguration_manager(cluster)
        checker = HistoryChecker()
        cluster.add_clients(contended_workload(), recorder=checker.record)
        cluster.run(1.0)
        cluster.crash_proxy(2)
        rm.change_global(QuorumConfig(read=1, write=5))
        cluster.run(3.0)
        assert rm.epoch_changes >= 1
        checker.assert_consistent()

    def test_consistency_with_false_suspicion_and_slow_proxy(self):
        cluster = SwiftCluster(chaos_config(3, 3), seed=8)
        rm = attach_reconfiguration_manager(cluster)
        checker = HistoryChecker()
        cluster.add_clients(contended_workload(), recorder=checker.record)
        cluster.run(1.0)
        slow = cluster.proxies[0].node_id
        cluster.network.set_delay_factor(rm.node_id, slow, 10000.0)
        cluster.detector.falsely_suspect(slow, start=1.0, end=4.0)
        rm.change_global(QuorumConfig(read=5, write=1))
        cluster.run(4.0)
        assert rm.epoch_changes >= 1
        # The falsely suspected proxy kept serving and re-executed via
        # NACKs; its clients' histories must still be consistent.
        assert sum(s.nacks_sent for s in cluster.storage_nodes) > 0
        checker.assert_consistent()

    def test_consistency_with_storage_crashes(self):
        cluster = SwiftCluster(chaos_config(3, 3), seed=10)
        rm = attach_reconfiguration_manager(cluster)
        checker = HistoryChecker()
        cluster.add_clients(contended_workload(), recorder=checker.record)
        cluster.run(1.0)
        cluster.crash_storage(0)
        rm.change_global(QuorumConfig(read=2, write=4))
        cluster.run(4.0)
        checker.assert_consistent()


class TestCheckerDetectsViolations:
    """The checker itself must not be vacuously satisfied."""

    def _rejects_read_at(self, checker, invoked_at):
        (violation,) = checker.check()
        assert violation.kind == "non-linearizable"
        assert f"read invoked at {invoked_at:.4f}" in violation.description

    def _read(self, t0, t1, value, stamp_time):
        from repro.common.types import NodeId

        return OperationRecord(
            client=NodeId.client(0),
            object_id="x",
            op_type=OpType.READ,
            invoked_at=t0,
            completed_at=t1,
            value=value,
            stamp=VersionStamp(stamp_time, "p"),
        )

    def _write(self, t0, t1, value):
        from repro.common.types import NodeId

        return OperationRecord(
            client=NodeId.client(1),
            object_id="x",
            op_type=OpType.WRITE,
            invoked_at=t0,
            completed_at=t1,
            value=value,
        )

    def test_detects_stale_read(self):
        checker = HistoryChecker()
        checker.record(self._write(0.0, 1.0, b"v1"))
        checker.record(self._write(2.0, 3.0, b"v2"))  # completed at 3.0
        checker.record(self._read(4.0, 5.0, b"v1", stamp_time=0.5))
        self._rejects_read_at(checker, 4.0)

    def test_detects_fabricated_value(self):
        checker = HistoryChecker()
        checker.record(self._read(0.0, 1.0, b"ghost", stamp_time=0.5))
        kinds = {v.kind for v in checker.check()}
        assert "fabricated-value" in kinds

    def test_detects_non_monotonic_reads(self):
        checker = HistoryChecker()
        checker.record(self._write(0.0, 1.0, b"v1"))
        checker.record(self._write(0.0, 1.5, b"v2"))
        checker.record(self._read(2.0, 3.0, b"v2", stamp_time=2.0))
        checker.record(self._read(4.0, 5.0, b"v1", stamp_time=1.0))
        self._rejects_read_at(checker, 4.0)

    def test_rejects_new_then_old_across_in_flight_write(self):
        """Atomic, not merely regular: once a read has seen an in-flight
        write, a later read may not miss it, even before it completes."""
        checker = HistoryChecker()
        checker.record(self._write(0.0, 1.0, b"v1"))
        # v2's write spans [2.0, 9.0): both reads overlap it.
        checker.record(self._write(2.0, 9.0, b"v2"))
        checker.record(self._read(3.0, 3.5, b"v2", stamp_time=2.0))
        checker.record(self._read(4.0, 4.5, b"v1", stamp_time=0.5))
        self._rejects_read_at(checker, 4.0)

    def test_rejects_new_then_old_after_write_completed(self):
        checker = HistoryChecker()
        checker.record(self._write(0.0, 1.0, b"v1"))
        checker.record(self._write(2.0, 3.0, b"v2"))  # completed at 3.0
        checker.record(self._read(3.5, 4.0, b"v2", stamp_time=2.0))
        checker.record(self._read(5.0, 5.5, b"v1", stamp_time=0.5))
        self._rejects_read_at(checker, 5.0)

    def test_accepts_concurrent_overlap(self):
        """A read overlapping a write may return either value."""
        checker = HistoryChecker()
        checker.record(self._write(0.0, 1.0, b"v1"))
        checker.record(self._write(2.0, 4.0, b"v2"))
        # Read concurrent with the second write: returning v1 is legal.
        checker.record(self._read(3.0, 3.5, b"v1", stamp_time=0.5))
        assert checker.check() == []

    def test_accepts_legal_history(self):
        checker = HistoryChecker()
        checker.record(self._write(0.0, 1.0, b"v1"))
        checker.record(self._read(2.0, 3.0, b"v1", stamp_time=0.5))
        checker.record(self._write(4.0, 5.0, b"v2"))
        checker.record(self._read(6.0, 7.0, b"v2", stamp_time=4.5))
        assert checker.check() == []

    def test_read_before_any_write_may_see_initial_value(self):
        checker = HistoryChecker()
        checker.record(self._read(0.0, 0.5, None, stamp_time=float("-inf")))
        checker.record(self._write(1.0, 2.0, b"v1"))
        assert checker.check() == []

    def test_given_initial_value_is_what_a_first_read_may_see(self):
        """A history taken against a store an earlier run wrote to: the
        first read sees that run's value, which no recorded write wrote."""
        checker = HistoryChecker(initial={"x": b"old"})
        checker.record(self._read(0.0, 0.5, b"old", stamp_time=0.1))
        checker.record(self._write(1.0, 2.0, b"v1"))
        checker.record(self._read(3.0, 3.5, b"v1", stamp_time=1.0))
        assert checker.check() == []
        assert {v.kind for v in HistoryChecker(checker.records).check()} == {
            "fabricated-value"
        }

    def test_initial_value_written_again_by_the_history(self):
        """A same-seed rerun writes the earlier run's tokens again: a read
        of the initial value before the rewrite linearizes at the start,
        and its old stamp does not count against the rewrite's."""
        checker = HistoryChecker(initial={"x": b"v2"})
        checker.record(self._read(0.0, 0.5, b"v2", stamp_time=0.1))
        checker.record(self._write(1.0, 2.0, b"v1"))
        checker.record(self._read(2.5, 2.8, b"v1", stamp_time=1.0))
        checker.record(self._write(3.0, 4.0, b"v2"))
        checker.record(self._read(5.0, 5.5, b"v2", stamp_time=3.0))
        assert checker.check() == []
        kinds = {v.kind for v in HistoryChecker(checker.records).check()}
        assert kinds == {"non-linearizable", "write-order-inversion"}

    def test_initial_value_still_bounds_later_reads(self):
        checker = HistoryChecker(initial={"x": b"old"})
        checker.record(self._write(0.0, 1.0, b"v1"))
        checker.record(self._read(2.0, 3.0, b"old", stamp_time=0.1))
        self._rejects_read_at(checker, 2.0)
