"""Pipelined clients: linearizability, pacing, and depth-1 equivalence.

The client pipeline (``ClientNode(pipeline_depth=...)``) keeps several
logical operations in flight concurrently.  Each logical operation owns
a unique request id shared by all its retries, so the proxy's write
stamp replay still works per operation — these tests pin that a
pipelined history remains linearizable, that depth changes throughput
(the whole point), and that depth 1 is bitwise the historical client.
"""

from __future__ import annotations

import pytest

from repro.common.config import (
    ClusterConfig,
    NetworkConfig,
    StorageConfig,
)
from repro.common.types import QuorumConfig
from repro.sds.cluster import SwiftCluster
from repro.sds.consistency import HistoryChecker
from repro.workloads.generator import SyntheticWorkload, WorkloadSpec


def pipelined_config(read: int = 3, write: int = 3) -> ClusterConfig:
    return ClusterConfig(
        num_storage_nodes=6,
        num_proxies=2,
        clients_per_proxy=2,
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
    # Enough objects that per-object overlap chains stay short: the
    # Wing-Gong search is per object, and a pipelined fleet hammering
    # very few objects produces one giant always-overlapping chunk.
    return SyntheticWorkload(
        WorkloadSpec(
            write_ratio=0.5,
            object_size=2048,
            num_objects=16,
            skew=0.0,
            name="pipelined",
        ),
        seed=seed,
    )


def run_history(
    seed: int,
    duration: float = 3.0,
    pipeline_depth: int = 1,
    injection_rate: float = 0.0,
) -> tuple[SwiftCluster, HistoryChecker]:
    cluster = SwiftCluster(pipelined_config(), seed=seed)
    checker = HistoryChecker()
    cluster.add_clients(
        contended_workload(),
        recorder=checker.record,
        pipeline_depth=pipeline_depth,
        injection_rate=injection_rate,
    )
    cluster.run(duration)
    return cluster, checker


class TestPipelinedLinearizability:
    @pytest.mark.parametrize("depth", [4, 8])
    def test_pipelined_history_is_linearizable(self, depth):
        """Depth >= 4 in-flight operations per client through the full
        Wing-Gong search: pipelining must not reorder the register."""
        cluster, checker = run_history(seed=31 + depth, pipeline_depth=depth)
        assert len(checker.records) > 500
        checker.assert_consistent()

    def test_pipelining_overlaps_operations(self):
        """A pipelined client really does keep several logical ops in
        flight: same seed and duration, depth 4 completes far more
        operations than depth 1 when latency (not the servers) binds."""
        _, depth_one = run_history(seed=41, pipeline_depth=1)
        _, depth_four = run_history(seed=41, pipeline_depth=4)
        assert len(depth_four.records) > 2 * len(depth_one.records)


class TestOpenLoopMode:
    def test_injection_rate_paces_the_client(self):
        """Open-loop mode injects on the rate grid, not on completions:
        a fast cluster completes ~rate*duration ops, no more."""
        cluster = SwiftCluster(pipelined_config(), seed=51)
        checker = HistoryChecker()
        clients = cluster.add_clients(
            contended_workload(),
            clients_per_proxy=1,
            recorder=checker.record,
            pipeline_depth=4,
            injection_rate=50.0,
        )
        cluster.run(4.0)
        checker.assert_consistent()
        expected = 50.0 * 4.0 * len(clients)
        completed = sum(client.operations_issued for client in clients)
        # The grid bounds injections above; retries can only add a few.
        assert completed <= expected * 1.2
        assert completed >= expected * 0.7

    def test_depth_one_defaults_match_legacy_client(self):
        """``pipeline_depth=1, injection_rate=0`` must reproduce the
        historical client exactly — same seed, same history."""
        _, default_run = run_history(seed=61)
        _, explicit_run = run_history(seed=61, pipeline_depth=1)
        assert default_run.records == explicit_run.records


class TestValidation:
    def test_rejects_bad_depth_and_rate(self):
        cluster = SwiftCluster(pipelined_config(), seed=71)
        with pytest.raises(ValueError):
            cluster.add_clients(contended_workload(), pipeline_depth=0)
        with pytest.raises(ValueError):
            cluster.add_clients(
                contended_workload(), injection_rate=-1.0
            )
