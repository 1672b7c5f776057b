"""Unit tests for the QuorumOracle and the message-level OracleNode."""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError, NotFittedError
from repro.common.types import NodeId, QuorumConfig
from repro.oracle.service import OracleNode, QuorumOracle
from repro.sds.messages import (
    AggregateStats,
    NewQuorums,
    NewStats,
    ObjectStats,
    TailQuorum,
    TailStats,
)
from repro.sds.quorum import QuorumSystem
from repro.sim.node import Node


@pytest.fixture(scope="module")
def trained_oracle() -> QuorumOracle:
    return QuorumOracle.trained_default(ClusterConfig())


class TestQuorumOracle:
    def test_write_heavy_predicts_small_w(self, trained_oracle):
        assert trained_oracle.predict_write_quorum(0.99, 64 * 1024) == 1

    def test_read_heavy_predicts_large_w(self, trained_oracle):
        assert trained_oracle.predict_write_quorum(0.01, 64 * 1024) == 5

    def test_config_derives_read_quorum(self, trained_oracle):
        config = trained_oracle.predict_config(0.99, 64 * 1024)
        assert config == QuorumConfig(read=5, write=1)
        assert QuorumSystem(5).admits(config)

    def test_constraints_clamp_prediction(self):
        oracle = QuorumOracle.trained_default(
            ClusterConfig(), min_write_quorum=2, max_write_quorum=4
        )
        assert oracle.predict_write_quorum(0.99, 64 * 1024) == 2
        assert oracle.predict_write_quorum(0.01, 64 * 1024) == 4

    def test_prediction_counter(self, trained_oracle):
        before = trained_oracle.predictions
        trained_oracle.predict_write_quorum(0.5, 1024)
        assert trained_oracle.predictions == before + 1

    def test_untrained_oracle_raises(self):
        oracle = QuorumOracle(replication_degree=5)
        with pytest.raises(NotFittedError):
            oracle.predict_write_quorum(0.5, 1024)

    def test_invalid_constraints_rejected(self):
        with pytest.raises(ConfigurationError):
            QuorumOracle(replication_degree=5, min_write_quorum=0)
        with pytest.raises(ConfigurationError):
            QuorumOracle(
                replication_degree=5,
                min_write_quorum=4,
                max_write_quorum=2,
            )


class _AmProbe(Node):
    """Pretends to be the Autonomic Manager."""

    def __init__(self, sim, network):
        super().__init__(
            sim, network, NodeId("am-probe", 0)
        )
        self.quorum_replies: list[NewQuorums] = []
        self.tail_replies: list[TailQuorum] = []
        self.register_handler(
            NewQuorums, lambda e: self.quorum_replies.append(e.payload)
        )
        self.register_handler(
            TailQuorum, lambda e: self.tail_replies.append(e.payload)
        )


class TestOracleNode:
    @pytest.fixture
    def wired(self, sim, network, trained_oracle):
        node = OracleNode(sim, network, trained_oracle)
        node.start()
        probe = _AmProbe(sim, network)
        probe.start()
        return node, probe

    def test_new_stats_round_trip(self, sim, wired):
        node, probe = wired
        stats = (
            ObjectStats("hot-write", reads=1, writes=99, mean_size=65536.0),
            ObjectStats("hot-read", reads=99, writes=1, mean_size=65536.0),
        )
        probe.send(node.node_id, NewStats(round_no=3, stats=stats))
        sim.run()
        reply = probe.quorum_replies[0]
        assert reply.round_no == 3
        assert reply.quorums["hot-write"].write == 1
        assert reply.quorums["hot-read"].write == 5

    def test_objects_without_accesses_skipped(self, sim, wired):
        node, probe = wired
        stats = (ObjectStats("idle", reads=0, writes=0, mean_size=0.0),)
        probe.send(node.node_id, NewStats(round_no=1, stats=stats))
        sim.run()
        assert probe.quorum_replies[0].quorums == {}

    def test_tail_stats_round_trip(self, sim, wired):
        node, probe = wired
        probe.send(
            node.node_id,
            TailStats(
                stats=AggregateStats(reads=10, writes=990, mean_size=65536.0)
            ),
        )
        sim.run()
        assert probe.tail_replies[0].quorum.write == 1

    def test_empty_tail_gets_a_valid_default(self, sim, wired):
        node, probe = wired
        probe.send(
            node.node_id,
            TailStats(stats=AggregateStats(reads=0, writes=0, mean_size=0.0)),
        )
        sim.run()
        quorum = probe.tail_replies[0].quorum
        assert QuorumSystem(5).admits(quorum)
