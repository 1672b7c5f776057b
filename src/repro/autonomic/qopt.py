"""Top-level Q-OPT assembly: cluster + RM + Oracle + Autonomic Manager.

:func:`attach_qopt` is the one-call way to put the complete self-tuning
stack of Figure 4 on top of a :class:`~repro.sds.cluster.SwiftCluster`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.autonomic.manager import AutonomicManager
from repro.common.config import AutonomicConfig
from repro.common.errors import ConfigurationError
from repro.common.types import NodeId, NodeKind
from repro.oracle.service import OracleNode, QuorumOracle
from repro.reconfig.manager import (
    ReconfigurationManager,
    attach_reconfiguration_manager,
)
from repro.reconfig.replicated import (
    ReplicatedReconfigurationManager,
    attach_replicated_manager,
)
from repro.sds.cluster import SwiftCluster


@dataclass
class QOptSystem:
    """Handles to the three Q-OPT components attached to a cluster."""

    cluster: SwiftCluster
    reconfiguration_manager: ReconfigurationManager
    oracle_node: OracleNode
    autonomic_manager: AutonomicManager
    #: Present when the RM runs replicated (``rm_replicas > 1``).
    rm_group: Optional[ReplicatedReconfigurationManager] = None

    @property
    def oracle(self) -> QuorumOracle:
        return self.oracle_node.oracle

    def run(self, duration: float) -> None:
        """Advance the whole system by ``duration`` simulated seconds."""
        self.cluster.run(duration)


def attach_qopt(
    cluster: SwiftCluster,
    autonomic_config: Optional[AutonomicConfig] = None,
    oracle: Optional[QuorumOracle] = None,
    rm_replicas: int = 1,
) -> QOptSystem:
    """Attach the full Q-OPT control plane to a cluster.

    ``oracle`` defaults to a decision-tree oracle trained on the default
    ~170-workload sweep against this cluster's configuration (the
    offline-training step of the paper).  ``rm_replicas > 1`` deploys
    the fault-tolerant primary-backup Reconfiguration Manager instead of
    the single-node one; the Autonomic Manager then fails over between
    replicas automatically.
    """
    if rm_replicas < 1:
        raise ConfigurationError("rm_replicas must be >= 1")
    config = autonomic_config or AutonomicConfig()
    config.validate(cluster.config.replication_degree)
    if oracle is None:
        oracle = QuorumOracle.trained_default(
            cluster.config,
            min_write_quorum=config.min_write_quorum,
            max_write_quorum=config.max_write_quorum,
        )
    rm_group: Optional[ReplicatedReconfigurationManager] = None
    if rm_replicas == 1:
        rm = attach_reconfiguration_manager(cluster)
        rm_targets = rm.node_id
    else:
        rm_group = attach_replicated_manager(cluster, replicas=rm_replicas)
        rm = rm_group.members[0]
        rm_targets = rm_group.member_ids
    oracle_node, am = attach_tuning_loop(cluster, oracle, config, rm_targets)
    return QOptSystem(
        cluster=cluster,
        reconfiguration_manager=rm,
        oracle_node=oracle_node,
        autonomic_manager=am,
        rm_group=rm_group,
    )


def attach_tuning_loop(
    cluster: SwiftCluster,
    oracle: QuorumOracle,
    config: AutonomicConfig,
    reconfig_manager: NodeId | list[NodeId],
) -> tuple[OracleNode, AutonomicManager]:
    """Join a ring's Oracle + Autonomic Manager pair to its cluster.

    Both take the ring's index, so each shard of a sharded world tunes
    on its own.  ``config`` must already be validated.
    """
    oracle_node = OracleNode(
        cluster.sim,
        cluster.network,
        oracle,
        node_id=NodeId(NodeKind.ORACLE.value, cluster.index),
    )
    cluster.add_node(oracle_node)
    am = AutonomicManager(
        cluster.sim,
        cluster.network,
        proxies=[proxy.node_id for proxy in cluster.proxies],
        reconfig_manager=reconfig_manager,
        oracle=oracle_node.node_id,
        detector=cluster.detector,
        config=config,
        initial_default=cluster.config.initial_quorum,
        obs=cluster.obs,
        node_id=NodeId(NodeKind.AUTONOMIC_MANAGER.value, cluster.index),
    )
    cluster.add_node(am)
    return oracle_node, am
