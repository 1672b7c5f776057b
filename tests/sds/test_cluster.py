"""Unit tests for cluster assembly and inspection helpers."""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError
from repro.sds.client import OperationRecord
from repro.sds.cluster import SwiftCluster
from repro.workloads.generator import SyntheticWorkload, WorkloadSpec


def spec(write_ratio=0.5, n=8):
    return WorkloadSpec(
        write_ratio=write_ratio, object_size=2048, num_objects=n, name="c"
    )


class TestAssembly:
    def test_builds_configured_node_counts(self, small_cluster):
        assert len(small_cluster.storage_nodes) == 5
        assert len(small_cluster.proxies) == 2
        assert small_cluster.clients == []

    def test_default_config_builds_paper_testbed(self):
        cluster = SwiftCluster(seed=3)
        assert len(cluster.storage_nodes) == 10
        assert len(cluster.proxies) == 5

    def test_invalid_config_rejected_at_build(self):
        with pytest.raises(ConfigurationError):
            SwiftCluster(
                ClusterConfig(num_storage_nodes=2, replication_degree=5)
            )

    def test_add_clients_round_robin_over_proxies(self, tiny_cluster):
        clients = tiny_cluster.add_clients(
            SyntheticWorkload(spec(), seed=1), clients_per_proxy=3
        )
        assert len(clients) == 6
        by_proxy = {}
        for client in clients:
            by_proxy.setdefault(client.proxy_id, 0)
            by_proxy[client.proxy_id] += 1
        assert set(by_proxy.values()) == {3}

    def test_add_clients_factory_mode(self, tiny_cluster):
        seen = []

        def factory(index):
            seen.append(index)
            return SyntheticWorkload(spec(), seed=index)

        tiny_cluster.add_clients(factory, clients_per_proxy=2)
        assert seen == [0, 1, 2, 3]

    def test_add_clients_twice_extends(self, tiny_cluster):
        tiny_cluster.add_clients(
            SyntheticWorkload(spec(), seed=1), clients_per_proxy=1
        )
        tiny_cluster.add_clients(
            SyntheticWorkload(spec(), seed=2), clients_per_proxy=1
        )
        ids = [client.node_id for client in tiny_cluster.clients]
        assert len(ids) == len(set(ids)) == 4


class TestInspection:
    def test_replica_versions_covers_the_replica_set(self, tiny_cluster):
        workload = SyntheticWorkload(spec(write_ratio=1.0, n=2), seed=1)
        tiny_cluster.add_clients(workload, clients_per_proxy=1)
        tiny_cluster.run(1.0)
        object_id = workload.object_ids()[0]
        versions = tiny_cluster.replica_versions(object_id)
        assert set(versions) == set(tiny_cluster.ring.replicas(object_id))

    def test_freshest_version_is_max_stamp(self, tiny_cluster):
        workload = SyntheticWorkload(spec(write_ratio=1.0, n=2), seed=1)
        tiny_cluster.add_clients(workload, clients_per_proxy=1)
        tiny_cluster.run(1.0)
        object_id = workload.object_ids()[0]
        freshest = tiny_cluster.freshest_version(object_id)
        for version in tiny_cluster.replica_versions(object_id).values():
            assert version.stamp <= freshest.stamp

    def test_throughput_window_helper(self, tiny_cluster):
        tiny_cluster.add_clients(
            SyntheticWorkload(spec(), seed=1), clients_per_proxy=2
        )
        tiny_cluster.run(2.0)
        assert tiny_cluster.throughput(window=1.0) > 0

    def test_negative_duration_rejected(self, tiny_cluster):
        with pytest.raises(ConfigurationError):
            tiny_cluster.run(-1.0)


class TestCrashWiring:
    def test_crash_storage_silences_node(self, tiny_cluster):
        tiny_cluster.crash_storage(0)
        node = tiny_cluster.storage_nodes[0]
        assert node.crashed
        assert tiny_cluster.network.is_crashed(node.node_id)

    def test_crash_proxy_stops_its_clients_operations(self, tiny_cluster):
        tiny_cluster.add_clients(
            SyntheticWorkload(spec(), seed=1), clients_per_proxy=2
        )
        tiny_cluster.run(1.0)
        victim = tiny_cluster.proxies[0]
        tiny_cluster.crash_proxy(0)
        ops_at_crash = victim.operations_completed
        tiny_cluster.run(1.0)
        assert victim.operations_completed == ops_at_crash
        # The other proxy's clients continue.
        survivor = tiny_cluster.proxies[1]
        assert survivor.operations_completed > 0


class TestRecorder:
    def test_recorder_sees_reads_and_writes(self, tiny_cluster):
        records: list[OperationRecord] = []
        tiny_cluster.add_clients(
            SyntheticWorkload(spec(), seed=1),
            clients_per_proxy=2,
            recorder=records.append,
        )
        tiny_cluster.run(1.0)
        kinds = {record.op_type for record in records}
        assert len(kinds) == 2
        for record in records:
            if record.completed_at != float("inf"):
                assert record.completed_at >= record.invoked_at

    def test_think_time_slows_clients(self, tiny_objects_config):
        def run(think):
            cluster = SwiftCluster(tiny_objects_config, seed=1)
            cluster.add_clients(
                SyntheticWorkload(spec(), seed=1),
                clients_per_proxy=2,
                think_time=think,
            )
            cluster.run(2.0)
            return cluster.log.total_operations

        assert run(0.0) > 2 * run(0.05)
