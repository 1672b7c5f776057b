"""The Oracle: Q-OPT's machine-learning quorum predictor (Figure 4).

Two layers:

* :class:`QuorumOracle` — the in-process predictor: a trained model plus
  the user's fault-tolerance constraints on the write-quorum range
  (Section 3: the optimizer respects "user defined constraints on the
  minimum/maximum sizes of the read and write quorums").  The prototype
  follows the paper in predicting only W; ``QuorumConfig.from_write``
  derives R, and :class:`~repro.sds.quorum.QuorumSystem` owns the
  admissible W range.
* :class:`OracleNode` — the message-level wrapper spoken to by the
  Autonomic Manager (NEWSTATS -> NEWQUORUMS, TAILSTATS -> TAILQUORUM).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.mva import MvaThroughputModel
from repro.common.config import ClusterConfig
from repro.common.errors import NotFittedError
from repro.common.types import NodeId, NodeKind, ObjectId, QuorumConfig
from repro.oracle.dataset import TrainingSet, generate_training_set
from repro.oracle.decision_tree import DecisionTreeClassifier
from repro.oracle.features import feature_vector
from repro.sds.messages import (
    NewQuorums,
    NewStats,
    TailQuorum,
    TailStats,
)
from repro.sds.quorum import QuorumSystem
from repro.sim.kernel import Simulator
from repro.sim.network import Envelope, Network
from repro.sim.node import Node

#: Size of control-plane messages on the wire, bytes.
_CONTROL_BYTES = 512


class QuorumOracle:
    """Predicts the best write-quorum size for a workload profile."""

    def __init__(
        self,
        replication_degree: int,
        model: Optional[object] = None,
        min_write_quorum: int = 1,
        max_write_quorum: Optional[int] = None,
    ) -> None:
        self.system = QuorumSystem(replication_degree)
        #: The W sizes predictions are clamped to.
        self.write_quorums = self.system.admissible_writes(
            min_write_quorum, max_write_quorum
        )
        self.model = model or DecisionTreeClassifier()
        #: Number of predictions served (observability).
        self.predictions = 0

    # -- training --------------------------------------------------------------

    def train(self, dataset: TrainingSet) -> "QuorumOracle":
        self.model.fit(dataset.features, dataset.labels)
        return self

    @classmethod
    def trained_default(
        cls,
        cluster_config: Optional[ClusterConfig] = None,
        min_write_quorum: int = 1,
        max_write_quorum: Optional[int] = None,
        model: Optional[object] = None,
    ) -> "QuorumOracle":
        """An oracle trained on the default ~170-workload sweep.

        Ground-truth labels come from the MVA companion model of the
        given cluster configuration — the analogue of the paper's offline
        training measurements.
        """
        config = (cluster_config or ClusterConfig()).validate()
        dataset = generate_training_set(model=MvaThroughputModel(config))
        oracle = cls(
            replication_degree=config.replication_degree,
            model=model,
            min_write_quorum=min_write_quorum,
            max_write_quorum=max_write_quorum,
        )
        return oracle.train(dataset)

    # -- prediction -------------------------------------------------------------

    def predict_write_quorum(self, write_ratio: float, mean_size: float) -> int:
        """Best W for the profile, clamped to the user's constraints."""
        if not getattr(self.model, "fitted", False):
            raise NotFittedError("QuorumOracle's model is not trained")
        self.predictions += 1
        raw = self.model.predict_one(feature_vector(write_ratio, mean_size))
        return self.system.clamp_write(int(raw), self.write_quorums)

    def predict_config(
        self, write_ratio: float, mean_size: float
    ) -> QuorumConfig:
        """Best (R, W): R follows from W by ``QuorumConfig.from_write``."""
        write = self.predict_write_quorum(write_ratio, mean_size)
        return QuorumConfig.from_write(write, self.system.n)


class OracleNode(Node):
    """Message-level Oracle spoken to by the Autonomic Manager."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        oracle: QuorumOracle,
        node_id: Optional[NodeId] = None,
    ) -> None:
        # One oracle per shard in sharded deployments; the singleton id
        # is only the single-ring default.
        super().__init__(
            sim, network, node_id or NodeId.singleton(NodeKind.ORACLE)
        )
        self.oracle = oracle
        self.register_handler(NewStats, self._on_new_stats)
        self.register_handler(TailStats, self._on_tail_stats)

    def _on_new_stats(self, envelope: Envelope) -> None:
        request: NewStats = envelope.payload
        quorums: dict[ObjectId, QuorumConfig] = {}
        for stats in request.stats:
            if stats.accesses == 0:
                continue
            quorums[stats.object_id] = self.oracle.predict_config(
                stats.write_ratio, stats.mean_size
            )
        self.send(
            envelope.sender,
            NewQuorums(round_no=request.round_no, quorums=quorums),
            size=_CONTROL_BYTES + 32 * len(quorums),
        )

    def _on_tail_stats(self, envelope: Envelope) -> None:
        request: TailStats = envelope.payload
        stats = request.stats
        if stats.accesses == 0:
            quorum = QuorumConfig.from_write(
                self.oracle.write_quorums[0], self.oracle.system.n
            )
        else:
            quorum = self.oracle.predict_config(
                stats.write_ratio, stats.mean_size
            )
        self.send(
            envelope.sender, TailQuorum(quorum=quorum), size=_CONTROL_BYTES
        )
