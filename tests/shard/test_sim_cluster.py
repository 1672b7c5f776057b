"""ShardedSimCluster: routed clients, per-shard reconfig and tuning.

The sim-level fleet is the proving ground for the scale-out design:
S complete Q-OPT instances on one kernel, clients roaming the keyspace
through the router, every shard owning its epoch and its tuning loop.
"""

from __future__ import annotations

import pytest

from repro.common.config import (
    AutonomicConfig,
    ClientConfig,
    ClusterConfig,
    NetworkConfig,
    ProxyConfig,
    StorageConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.types import QuorumConfig
from repro.oracle.service import QuorumOracle
from repro.sds.consistency import HistoryChecker
from repro.shard.sim import SHARD_INDEX_STRIDE, ShardedSimCluster
from repro.workloads.generator import SyntheticWorkload, WorkloadSpec

from tests.determinism.test_timer_cancellation import run_pin

FAST_AM = AutonomicConfig(
    round_duration=1.0, quarantine=0.2, top_k=6, gamma=2, theta=0.02
)


def fleet_config(write: int = 3) -> ClusterConfig:
    return ClusterConfig(
        num_storage_nodes=6,
        num_proxies=2,
        clients_per_proxy=3,
        replication_degree=5,
        initial_quorum=QuorumConfig.from_write(write, 5),
        storage=StorageConfig(
            read_service_time=0.0005,
            write_service_time=0.0015,
            replication_interval=0.0,
        ),
        network=NetworkConfig(base_latency=0.0001),
        proxy=ProxyConfig(
            fallback_timeout=0.25, gather_deadline=0.8, max_gather_attempts=2
        ),
        client=ClientConfig(
            attempt_timeout=1.8,
            max_attempts=3,
            backoff_base=0.05,
            backoff_cap=0.4,
            backoff_jitter=0.5,
        ),
    )


def roaming_workload(seed: int = 1) -> SyntheticWorkload:
    return SyntheticWorkload(
        WorkloadSpec(
            write_ratio=0.5,
            object_size=2048,
            num_objects=16,
            skew=0.0,
            name="roaming",
        ),
        seed=seed,
    )


class ConstantModel:
    """Stub oracle model: always predicts the same write quorum."""

    fitted = True

    def __init__(self, write: int) -> None:
        self.write = write

    def fit(self, features, labels) -> None:  # pragma: no cover - unused
        pass

    def predict_one(self, features) -> int:
        return self.write


class TestShardedFleet:
    def test_node_ids_are_unique_and_strided(self) -> None:
        cluster = ShardedSimCluster(shards=3, config=fleet_config(), seed=2)
        everyone = [
            node_id
            for shard in cluster.shards
            for node_id in shard.node_ids()
        ]
        assert len(everyone) == len(set(everyone))
        assert cluster.shards[1].storage_nodes[0].node_id.index == (
            SHARD_INDEX_STRIDE
        )
        assert cluster.shards[2].proxies[0].node_id.index == (
            2 * SHARD_INDEX_STRIDE
        )
        assert [shard.manager.node_id.index for shard in cluster.shards] == [
            0, 1, 2,
        ]

    def test_routed_clients_reach_every_shard_consistently(self) -> None:
        cluster = ShardedSimCluster(shards=2, config=fleet_config(), seed=3)
        checker = HistoryChecker()
        cluster.add_clients(
            roaming_workload(seed=4), clients=6, recorder=checker.record
        )
        cluster.run(4.0)
        groups = cluster.partition_records(checker.records)
        assert sorted(groups) == ["shard-0", "shard-1"]
        for name, records in groups.items():
            assert len(records) > 100, f"{name} starved: {len(records)}"
            shard_checker = HistoryChecker()
            for record in records:
                shard_checker.record(record)
            shard_checker.assert_consistent()

    def test_per_shard_reconfiguration_is_isolated(self) -> None:
        cluster = ShardedSimCluster(shards=2, config=fleet_config(), seed=5)
        checker = HistoryChecker()
        cluster.add_clients(
            roaming_workload(seed=6), clients=6, recorder=checker.record
        )
        cluster.run(1.0)
        target = cluster.shard_named("shard-0")
        bystander = cluster.shard_named("shard-1")
        target.manager.change_global(QuorumConfig.from_write(4, 5))
        cluster.run(2.0)
        assert target.manager.reconfigurations_completed == 1
        assert bystander.manager.reconfigurations_completed == 0
        for proxy in target.proxies:
            assert proxy.active_plan().default.write == 4
        for proxy in bystander.proxies:
            assert proxy.active_plan().default.write == 3
        checker.assert_consistent()

    def test_shards_tune_to_different_quorums_independently(self) -> None:
        """The heterogeneous-workload case Q-OPT's sharding exists for:
        each shard's own AM/Oracle pair converges its W with no
        cross-shard coordination."""
        cluster = ShardedSimCluster(shards=2, config=fleet_config(), seed=7)
        cluster.attach_autonomic(
            0,
            QuorumOracle(replication_degree=5, model=ConstantModel(4)),
            autonomic_config=FAST_AM,
        )
        cluster.attach_autonomic(
            1,
            QuorumOracle(replication_degree=5, model=ConstantModel(2)),
            autonomic_config=FAST_AM,
        )
        checker = HistoryChecker()
        cluster.add_clients(
            roaming_workload(seed=8), clients=6, recorder=checker.record
        )
        cluster.run(8.0)
        # Each shard's hot set is tuned to its own oracle's W — the
        # overrides its AM installed — with no bleed between shards.
        for shard_name, expected in (("shard-0", 4), ("shard-1", 2)):
            for proxy in cluster.shard_named(shard_name).proxies:
                plan = proxy.active_plan()
                assert plan.overrides, f"{shard_name} installed no quorums"
                assert {q.write for q in plan.overrides.values()} == {
                    expected
                }
        checker.assert_consistent()
        # Recorded on the commit where the fleet still built its own
        # rings and AM/Oracle pairs: one shared builder changed nothing.
        assert run_pin(cluster, checker.records) == (
            511251,
            19536,
            "b7b4a88ad26c9070c1f27dc3299c11e16306227450d5fc61f1febde139e044a9",
        )

    def test_per_shard_initial_quorums(self) -> None:
        cluster = ShardedSimCluster(
            shards=2, config=fleet_config(), seed=1, write_quorums=[4, 2]
        )
        assert cluster.shards[0].write_quorum == 4
        assert cluster.shards[1].write_quorum == 2
        for proxy in cluster.shards[0].proxies:
            assert proxy.active_plan().default.write == 4
        for proxy in cluster.shards[1].proxies:
            assert proxy.active_plan().default.write == 2


class TestFleetValidation:
    def test_rejects_zero_shards(self) -> None:
        with pytest.raises(ConfigurationError):
            ShardedSimCluster(shards=0, config=fleet_config())

    def test_rejects_mismatched_quorum_list(self) -> None:
        with pytest.raises(ConfigurationError):
            ShardedSimCluster(
                shards=2, config=fleet_config(), write_quorums=[3]
            )

    def test_rejects_double_autonomic_attach(self) -> None:
        cluster = ShardedSimCluster(shards=2, config=fleet_config())
        oracle = QuorumOracle(replication_degree=5, model=ConstantModel(3))
        cluster.attach_autonomic(0, oracle, autonomic_config=FAST_AM)
        with pytest.raises(ConfigurationError):
            cluster.attach_autonomic(
                0,
                QuorumOracle(replication_degree=5, model=ConstantModel(3)),
                autonomic_config=FAST_AM,
            )

    def test_unknown_shard_name(self) -> None:
        cluster = ShardedSimCluster(shards=2, config=fleet_config())
        with pytest.raises(ConfigurationError):
            cluster.shard_named("shard-9")

    def test_negative_duration(self) -> None:
        cluster = ShardedSimCluster(shards=2, config=fleet_config())
        with pytest.raises(ConfigurationError):
            cluster.run(-1.0)
